// Package proto_test pins the engine-side half of the proto.Recyclable
// contract against all three engines: the deterministic simulator
// (simnet), the goroutine runtime (livenet), and the socket transport.
// The contract — Recycle is called exactly once per message, at
// retirement — is what makes pooled payloads safe; a missed Recycle leaks
// pool capacity under sustained load, and a double Recycle hands the same
// backing storage to two concurrent sends. Both failure modes are silent
// in production, so they are pinned here with a counting fake that
// detects each directly.
package proto_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// tracker issues counting messages and audits their retirement.
type tracker struct {
	issued      atomic.Int64
	outstanding atomic.Int64 // issued minus retired: leaks if nonzero at quiescence
	doubles     atomic.Int64 // Recycle calls beyond the first per message
}

func (trk *tracker) new() *countMsg {
	trk.issued.Add(1)
	trk.outstanding.Add(1)
	return &countMsg{trk: trk}
}

// check audits the tracker at engine quiescence: every issued message
// retired, none retired twice.
func (trk *tracker) check(t *testing.T, engine string) {
	t.Helper()
	if trk.issued.Load() == 0 {
		t.Fatalf("%s: protocol issued no messages — the test exercised nothing", engine)
	}
	if d := trk.doubles.Load(); d != 0 {
		t.Errorf("%s: %d double recycles (contract: exactly once)", engine, d)
	}
	if o := trk.outstanding.Load(); o != 0 {
		t.Errorf("%s: %d of %d messages never retired (leak)", engine, o, trk.issued.Load())
	}
}

// countMsg is the counting fake: a recyclable payload whose retirement is
// observable.
type countMsg struct {
	trk      *tracker
	recycles atomic.Int32
}

func (m *countMsg) Recycle() {
	if m.recycles.Add(1) > 1 {
		m.trk.doubles.Add(1)
		return
	}
	m.trk.outstanding.Add(-1)
}

// churner sends one tracked message per tick to a random peer. With a
// cutoff (engine Now units) it stops producing, so a bounded run can
// retire everything in flight before the audit.
type churner struct {
	trk    *tracker
	peers  []peer.Addr
	cutoff int64
}

func (c *churner) Init(ctx proto.Context) {}

func (c *churner) Tick(ctx proto.Context) {
	if c.cutoff > 0 && ctx.Now() >= c.cutoff {
		return
	}
	to := c.peers[ctx.Rand().Intn(len(c.peers))]
	if to == ctx.Self() {
		return
	}
	ctx.Send(to, c.trk.new())
}

func (c *churner) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {}

// TestCountingFakeDetectsDouble proves the fake itself catches a
// violating engine — without this, a green contract test could mean a
// broken detector.
func TestCountingFakeDetectsDouble(t *testing.T) {
	trk := &tracker{}
	m := trk.new()
	m.Recycle()
	m.Recycle()
	if trk.doubles.Load() != 1 {
		t.Fatalf("doubles = %d after a double recycle, want 1", trk.doubles.Load())
	}
	if trk.outstanding.Load() != 0 {
		t.Fatalf("outstanding = %d, want 0", trk.outstanding.Load())
	}
	leak := trk.new()
	_ = leak
	if trk.outstanding.Load() != 1 {
		t.Fatal("leaked message not visible as outstanding")
	}
}

// TestRecyclableExactlyOnceSimnet drives the deterministic engine through
// every retirement path it has — delivery, loss model, dead destination —
// and audits at quiescence. The senders stop at a cutoff and the run
// extends well past the one instant a message takes, so nothing is still
// in flight when the audit runs.
func TestRecyclableExactlyOnceSimnet(t *testing.T) {
	const n, cutoff = 16, 50
	trk := &tracker{}
	net := simnet.New(simnet.Config{Seed: 1, Drop: 0.3})
	addrs := make([]peer.Addr, n)
	for i := range addrs {
		addrs[i] = net.AddNode()
	}
	for i, a := range addrs {
		p := &churner{trk: trk, peers: addrs, cutoff: cutoff}
		if err := net.Attach(a, proto.BootstrapID, p, 1, int64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	// A mid-run death exercises the dead-destination retirement path.
	net.Run(cutoff / 2)
	net.Kill(addrs[0])
	net.Run(cutoff + 10)

	st := net.Stats()
	if st.Dropped == 0 || st.DeadDest == 0 || st.Delivered == 0 {
		t.Fatalf("not all retirement paths exercised: %+v", st)
	}
	trk.check(t, "simnet")
}

// TestRecyclableExactlyOnceLivenet audits the goroutine engine. Close
// drains held and queued messages into the Dropped bucket, so after it
// returns every issued message must be retired — including those stranded
// by the kill, the loss model, the latency window, and the tiny inboxes.
func TestRecyclableExactlyOnceLivenet(t *testing.T) {
	const n = 12
	trk := &tracker{}
	net := livenet.New(livenet.Config{Seed: 2, Drop: 0.2, InboxSize: 2})
	net.SetLatency(time.Millisecond, 3*time.Millisecond)
	hosts := make([]*livenet.Host, n)
	addrs := make([]peer.Addr, n)
	for i := range hosts {
		hosts[i] = net.AddHost()
		addrs[i] = hosts[i].Addr()
	}
	for _, h := range hosts {
		if err := h.Attach(proto.BootstrapID, &churner{trk: trk, peers: addrs}, 2*time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a delivery", func() bool { return net.Snapshot().Delivered > 0 })
	dropped := net.Snapshot().Dropped
	hosts[0].Kill() // dead-destination path, plus the victim's inbox drain
	waitFor(t, "a drop after the kill", func() bool { return net.Snapshot().Dropped > dropped })
	net.Close()

	st := net.Snapshot()
	if st.Delivered == 0 || st.Dropped == 0 {
		t.Fatalf("not all retirement paths exercised: %+v", st)
	}
	trk.check(t, "livenet")
}

// TestRecyclableExactlyOnceTransport audits the socket engine's
// process-local path: payloads that do not implement the wire codec's
// message type travel the loopback shortcut by pointer, and the engine
// still owes them the exactly-once retirement across delivery, the loss
// model, inbox overflow, and dead hosts. (The cross-process path retires
// the original at encode time; its conservation is pinned by the
// transport package's own tests.)
func TestRecyclableExactlyOnceTransport(t *testing.T) {
	const n = 8
	trk := &tracker{}
	net, err := transport.New(transport.Config{
		Seed: 3, N: n, Procs: 1, BasePort: 19380, Drop: 0.2, InboxSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	hosts := net.LocalHosts()
	addrs := make([]peer.Addr, n)
	for i, h := range hosts {
		addrs[i] = h.Addr()
	}
	for _, h := range hosts {
		if err := h.Attach(proto.BootstrapID, &churner{trk: trk, peers: addrs}, 2*time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a delivery", func() bool { return net.Snapshot().Delivered > 0 })
	dropped := net.Snapshot().Dropped
	hosts[0].Kill()
	waitFor(t, "a drop after the kill", func() bool { return net.Snapshot().Dropped > dropped })
	net.StopTicks()
	if !net.Quiesce(5 * time.Second) {
		t.Fatal("transport did not quiesce")
	}
	st := net.Snapshot()
	if st.Delivered == 0 || st.Dropped == 0 {
		t.Fatalf("not all retirement paths exercised: %+v", st)
	}
	net.Close()
	trk.check(t, "transport")
}

// waitFor polls cond until it holds, failing t if it does not within 10 s:
// the wall-clock engines make progress at the scheduler's pace, so a test
// waits for the event it needs rather than for a fixed time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 10s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
