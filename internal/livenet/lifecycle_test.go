package livenet

import (
	"testing"
	"time"

	"repro/internal/peer"
	"repro/internal/proto"
)

// echoProto sends a message to a target on every tick and counts what it
// handles. Counters are plain ints: the engine serialises all callbacks
// per host, which is exactly what -race verifies.
type echoProto struct {
	targets []peer.Addr
	handled int
	ticked  int
}

func (p *echoProto) Init(proto.Context) {}
func (p *echoProto) Tick(ctx proto.Context) {
	p.ticked++
	if len(p.targets) > 0 {
		ctx.Send(p.targets[ctx.Rand().Intn(len(p.targets))], "ping")
	}
}
func (p *echoProto) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) { p.handled++ }

// buildEchoNet wires n hosts that each tick every period and ping a random
// peer.
func buildEchoNet(t *testing.T, n int, cfg Config, period time.Duration) (*Network, []*Host) {
	t.Helper()
	net := New(cfg)
	hosts := make([]*Host, n)
	addrs := make([]peer.Addr, n)
	for i := range hosts {
		hosts[i] = net.AddHost()
		addrs[i] = hosts[i].Addr()
	}
	for i, h := range hosts {
		if err := h.Attach(9, &echoProto{targets: addrs}, period, time.Duration(i)*period/time.Duration(n)); err != nil {
			t.Fatal(err)
		}
	}
	return net, hosts
}

func checkConservation(t *testing.T, st Stats) {
	t.Helper()
	if st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counter conservation violated at quiescence: sent=%d != delivered=%d + dropped=%d + overflow=%d (sum %d)",
			st.Sent, st.Delivered, st.Dropped, st.Overflow, st.Delivered+st.Dropped+st.Overflow)
	}
}

// TestLiveStatsConservation drives traffic through every loss path — the
// drop model, latency (in-flight messages stranded at Close), a tiny
// inbox (overflow), and a killed host — and checks that at quiescence
// Sent == Delivered + Dropped + Overflow.
func TestLiveStatsConservation(t *testing.T) {
	net, hosts := buildEchoNet(t, 8, Config{
		Seed:       21,
		Drop:       0.3,
		MinLatency: time.Millisecond,
		MaxLatency: 3 * time.Millisecond,
		InboxSize:  4,
	}, 2*time.Millisecond)
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	hosts[0].Kill()
	time.Sleep(60 * time.Millisecond)
	net.Close()
	st := net.Snapshot()
	if st.Sent == 0 {
		t.Fatal("no traffic")
	}
	checkConservation(t, st)
	if st.Dropped == 0 {
		t.Error("drop=0.3 recorded no drops")
	}
}

// TestLivePauseResume checks the pause handshake: a paused host runs no
// callbacks (its counters freeze) and resumes where it left off.
func TestLivePauseResume(t *testing.T) {
	net := New(Config{Seed: 51})
	h := net.AddHost()
	p := &echoProto{}
	if err := h.Attach(9, p, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if !h.Pause() {
		t.Fatal("Pause failed on a live host")
	}
	ticked := p.ticked // safe: host is parked
	time.Sleep(20 * time.Millisecond)
	if p.ticked != ticked {
		t.Errorf("paused host ticked %d more times", p.ticked-ticked)
	}
	if !h.Resume() {
		t.Fatal("Resume failed")
	}
	time.Sleep(20 * time.Millisecond)
	net.Close()
	if p.ticked <= ticked {
		t.Error("resumed host never ticked again")
	}
}

// TestLiveRuntimeFaultModel flips the fault model while the network runs:
// drop to 1.0 silences delivery growth, a full partition between the two
// hosts does the same, and healing restores traffic.
func TestLiveRuntimeFaultModel(t *testing.T) {
	net := New(Config{Seed: 81})
	a, b := net.AddHost(), net.AddHost()
	pa := &echoProto{targets: []peer.Addr{b.Addr()}}
	pb := &echoProto{}
	if err := a.Attach(9, pa, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(9, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	base := net.Snapshot()
	if base.Delivered == 0 {
		t.Fatal("no traffic before fault injection")
	}

	net.SetDrop(1.0)
	time.Sleep(25 * time.Millisecond)
	mid := net.Snapshot()
	net.SetDrop(0)

	// Snapshot after the drop phase so the partition assertion measures
	// the partition, not leftovers of drop=1.0.
	preCut := net.Snapshot()
	split := b.Addr()
	net.SetPartition(func(from, to peer.Addr) bool { return (from < split) != (to < split) })
	time.Sleep(25 * time.Millisecond)
	cut := net.Snapshot()
	if cut.Dropped <= preCut.Dropped {
		t.Error("partition dropped nothing")
	}
	net.SetPartition(nil)
	net.SetLatency(time.Millisecond, 2*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	net.Close()
	final := net.Snapshot()
	if final.Delivered <= cut.Delivered {
		t.Error("healing the partition restored no traffic")
	}
	if mid.Dropped <= base.Dropped {
		t.Error("drop=1.0 dropped nothing")
	}
	checkConservation(t, final)
}
