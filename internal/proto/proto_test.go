// Package proto_test pins the engine-side half of the proto.Recyclable
// contract on the deterministic simulator (simnet) and the goroutine
// runtime (livenet). The contract — Recycle
// is called exactly once per message, at retirement — is what makes pooled
// payloads safe; a missed Recycle leaks pool capacity under sustained load,
// and a double Recycle hands the same backing storage to two concurrent
// sends. Both failure modes are silent in production, so they are pinned
// with a counting fake (testenv.Ledger) that detects each directly. The
// goroutine engines share one host runtime, and internal/host's
// both-links suite also audits it with the same fake on loopback sockets.
package proto_test

import (
	"testing"
	"time"

	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/testenv"
)

// churner sends one counting message per tick to a random peer. With a
// cutoff (engine Now units) it stops producing, so a bounded run can
// retire everything in flight before the audit.
type churner struct {
	led    *testenv.Ledger
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
	ctx.Send(to, c.led.New())
}

func (c *churner) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {}

// TestCountingFakeDetectsDouble proves the fake itself catches a
// violating engine — without this, a green contract test could mean a
// broken detector.
func TestCountingFakeDetectsDouble(t *testing.T) {
	var led testenv.Ledger
	m := led.New()
	m.Recycle()
	m.Recycle()
	if led.Doubles.Load() != 1 {
		t.Fatalf("doubles = %d after a double recycle, want 1", led.Doubles.Load())
	}
	if led.Retired.Load() != 1 {
		t.Fatalf("retired = %d, want 1", led.Retired.Load())
	}
	leak := led.New()
	_ = leak
	if led.Issued.Load()-led.Retired.Load() != 1 {
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
	led := &testenv.Ledger{}
	net := simnet.New(simnet.Config{Seed: 1, Drop: 0.3})
	addrs := make([]peer.Addr, n)
	for i := range addrs {
		addrs[i] = net.AddNode()
	}
	for i, a := range addrs {
		p := &churner{led: led, peers: addrs, cutoff: cutoff}
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
	led.Check(t)
}

// TestRecyclableExactlyOnceLivenet audits the goroutine engine. Close
// drains held and queued messages into the Dropped bucket, so after it
// returns every issued message must be retired — including those stranded
// by the kill, the loss model, the latency window, and the tiny inboxes.
func TestRecyclableExactlyOnceLivenet(t *testing.T) {
	const n = 12
	led := &testenv.Ledger{}
	net := livenet.New(livenet.Config{Seed: 2, Drop: 0.2, InboxSize: 2})
	net.SetLatency(time.Millisecond, 3*time.Millisecond)
	hosts := make([]*livenet.Host, n)
	addrs := make([]peer.Addr, n)
	for i := range hosts {
		hosts[i] = net.AddHost()
		addrs[i] = hosts[i].Addr()
	}
	for _, h := range hosts {
		if err := h.Attach(proto.BootstrapID, &churner{led: led, peers: addrs}, 2*time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	testenv.Await(t, "a delivery", func() bool { return net.Snapshot().Delivered > 0 })
	dropped := net.Snapshot().Dropped
	hosts[0].Kill() // dead-destination path, plus the victim's inbox drain
	testenv.Await(t, "a drop after the kill", func() bool { return net.Snapshot().Dropped > dropped })
	net.Close()

	st := net.Snapshot()
	if st.Delivered == 0 || st.Dropped == 0 {
		t.Fatalf("not all retirement paths exercised: %+v", st)
	}
	led.Check(t)
}
