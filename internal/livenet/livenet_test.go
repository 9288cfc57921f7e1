package livenet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/truth"
)

// TestBootstrapOverLivenet runs the full two-layer stack — NEWSCAST under
// the bootstrapping service — on the concurrent runtime and checks that
// the structures converge to (near) perfection. With -race this also
// validates that the engine serialises protocol state correctly.
func TestBootstrapOverLivenet(t *testing.T) {
	const n = 64
	const period = 10 * time.Millisecond

	net := New(Config{Seed: 1})
	defer net.Close()

	ids := id.Unique(n, 2)
	hosts := make([]*Host, n)
	descs := make([]peer.Descriptor, n)
	for i := 0; i < n; i++ {
		hosts[i] = net.AddHost()
		descs[i] = peer.Descriptor{ID: ids[i], Addr: hosts[i].Addr()}
	}
	oracle := sampling.NewOracle(descs, 3)

	cfg := core.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		nc := newscast.New(descs[i], oracle.Sample(5), newscast.DefaultViewSize)
		if err := hosts[i].Attach(newscast.ProtoID, nc, period, time.Duration(i)*period/n); err != nil {
			t.Fatal(err)
		}
		nd, err := core.NewNode(descs[i], cfg, newscast.NewSampler(nc, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if err := hosts[i].Attach(core.ProtoID, nd, period, 5*period+time.Duration(i)*period/n); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}

	// Let the stack run for ~60 periods (5 warmup + bootstrap), then
	// stop the network before measuring: protocol state must not be
	// read while host goroutines are live.
	time.Sleep(60 * period)
	net.Close()

	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]truth.Member, n)
	for i, nd := range nodes {
		members[i] = truth.Member{Self: descs[i].ID, Leaf: nd.Leaf(), Table: nd.Table()}
	}
	agg := tr.MeasureAll(members, 1)
	leafFrac := float64(agg.LeafMissing) / float64(agg.LeafTotal)
	prefFrac := float64(agg.PrefixMissing) / float64(agg.PrefixTotal)
	t.Logf("livenet convergence: leaf missing %.4f, prefix missing %.4f, stats %+v",
		leafFrac, prefFrac, net.Snapshot())
	// Wall-clock scheduling is nondeterministic; demand substantial
	// convergence rather than perfection.
	if leafFrac > 0.05 {
		t.Errorf("leaf missing %.4f after ~60 periods, want < 0.05", leafFrac)
	}
	if prefFrac > 0.05 {
		t.Errorf("prefix missing %.4f after ~60 periods, want < 0.05", prefFrac)
	}
	if st := net.Snapshot(); st.Sent == 0 || st.Delivered == 0 {
		t.Errorf("no traffic recorded: %+v", st)
	}
}

type countingProto struct {
	ticks   int
	handled int
	echoTo  peer.Addr
}

func (p *countingProto) Init(proto.Context) {}
func (p *countingProto) Tick(ctx proto.Context) {
	p.ticks++
	if p.echoTo != peer.NoAddr {
		ctx.Send(p.echoTo, "ping")
	}
}
func (p *countingProto) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	p.handled++
}

func TestTicksAndDelivery(t *testing.T) {
	net := New(Config{Seed: 4})
	a, b := net.AddHost(), net.AddHost()
	pa := &countingProto{echoTo: b.Addr()}
	pb := &countingProto{echoTo: peer.NoAddr}
	if err := a.Attach(9, pa, 5*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(9, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	net.Close()
	if pa.ticks == 0 {
		t.Error("no ticks fired")
	}
	if pb.handled == 0 {
		t.Error("no messages delivered")
	}
}

func TestAttachDuplicate(t *testing.T) {
	net := New(Config{Seed: 5})
	defer net.Close()
	h := net.AddHost()
	p := &countingProto{echoTo: peer.NoAddr}
	if err := h.Attach(1, p, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(1, p, 0, 0); err == nil {
		t.Error("duplicate attach accepted")
	}
}

func TestCloseIdempotentAndStartAfterClose(t *testing.T) {
	net := New(Config{Seed: 6})
	h := net.AddHost()
	p := &countingProto{echoTo: peer.NoAddr}
	if err := h.Attach(1, p, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	net.Close()
	net.Close() // idempotent
	if err := net.Start(); err == nil {
		t.Error("start after close should fail")
	}
}

func TestDropModel(t *testing.T) {
	net := New(Config{Seed: 7, Drop: 1.0})
	a, b := net.AddHost(), net.AddHost()
	pa := &countingProto{echoTo: b.Addr()}
	pb := &countingProto{echoTo: peer.NoAddr}
	if err := a.Attach(9, pa, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(9, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	net.Close()
	if pb.handled != 0 {
		t.Errorf("drop=1.0 still delivered %d messages", pb.handled)
	}
	if st := net.Snapshot(); st.Dropped == 0 {
		t.Error("no drops recorded")
	}
}

func TestSendToUnknownHost(t *testing.T) {
	net := New(Config{Seed: 8})
	a := net.AddHost()
	pa := &countingProto{echoTo: peer.Addr(99)}
	if err := a.Attach(9, pa, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	net.Close()
	if st := net.Snapshot(); st.Dropped == 0 {
		t.Error("sends to unknown hosts should count as dropped")
	}
}

func TestHostStop(t *testing.T) {
	net := New(Config{Seed: 9})
	a, b := net.AddHost(), net.AddHost()
	pa := &countingProto{echoTo: b.Addr()}
	pb := &countingProto{echoTo: peer.NoAddr}
	if err := a.Attach(9, pa, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(9, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	b.Kill()
	b.Kill() // idempotent
	if !b.Stopped() {
		t.Error("host should report stopped")
	}
	time.Sleep(20 * time.Millisecond)
	handled := pb.handled
	time.Sleep(50 * time.Millisecond)
	net.Close()
	if pb.handled > handled {
		t.Errorf("crashed host handled %d more messages", pb.handled-handled)
	}
	if pb.handled == 0 {
		t.Error("no traffic before the crash")
	}
}
