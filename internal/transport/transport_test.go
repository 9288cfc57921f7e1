package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
)

// pinger is a minimal request/reply gossiper over core.Message: every
// tick it sends one request to a fixed-stride neighbour; every request it
// answers with one reply. The shape mirrors the bootstrap protocol's
// traffic (so pooling and retirement run the real paths) while the shared
// counters make delivery observable from the test.
type pinger struct {
	self     peer.Descriptor
	n        int
	requests *atomic.Int64 // handled requests, shared across hosts
	replies  *atomic.Int64 // handled replies
}

func (p *pinger) Init(ctx proto.Context) {}

func (p *pinger) Tick(ctx proto.Context) {
	to := peer.Addr((int(ctx.Self()) + 1 + ctx.Rand().Intn(p.n-1)) % p.n)
	m := core.NewMessage()
	m.Sender = p.self
	m.Request = true
	m.Entries = append(m.Entries, p.self)
	ctx.Send(to, m)
}

func (p *pinger) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(*core.Message)
	if !ok {
		return
	}
	if !m.Request {
		p.replies.Add(1)
		return
	}
	p.requests.Add(1)
	r := core.NewMessage()
	r.Sender = p.self
	r.Request = false
	ctx.Send(from, r)
}

// cluster spins up the networks of a campaign inside one test process —
// one Network per simulated OS process — with a pinger on every host.
type cluster struct {
	nets     []*Network
	requests atomic.Int64
	replies  atomic.Int64
}

func newCluster(t *testing.T, cfg Config, period time.Duration) *cluster {
	t.Helper()
	cfg = cfg.withDefaults()
	c := &cluster{}
	ids := id.Unique(cfg.N, cfg.Seed+0x11)
	for p := 0; p < cfg.Procs; p++ {
		pc := cfg
		pc.Proc = p
		n, err := New(pc)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range n.LocalHosts() {
			pg := &pinger{
				self:     peer.Descriptor{ID: ids[h.Addr()], Addr: h.Addr()},
				n:        cfg.N,
				requests: &c.requests,
				replies:  &c.replies,
			}
			if err := h.Attach(core.ProtoID, pg, period, time.Duration(int(h.Addr()))*period/time.Duration(cfg.N)); err != nil {
				t.Fatal(err)
			}
		}
		c.nets = append(c.nets, n)
	}
	return c
}

func (c *cluster) start(t *testing.T) {
	t.Helper()
	for _, n := range c.nets {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
}

// settle runs the quiesce protocol across every process and returns the
// summed stats.
func (c *cluster) settle(t *testing.T) Stats {
	t.Helper()
	for _, n := range c.nets {
		n.StopTicks()
	}
	// Quiescence is global: a process is only settled once its peers have
	// stopped producing too, so poll the sum.
	deadline := time.Now().Add(10 * time.Second)
	var prev Stats
	stable := 0
	for time.Now().Before(deadline) && stable < 5 {
		time.Sleep(20 * time.Millisecond)
		cur := c.sum()
		pending := int64(0)
		for _, n := range c.nets {
			pending += n.sock.inflight.Load()
		}
		if cur == prev && pending == 0 {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	if stable < 5 {
		t.Fatalf("cluster did not quiesce: %+v", prev)
	}
	return prev
}

func (c *cluster) sum() Stats {
	var st Stats
	for _, n := range c.nets {
		st.Add(n.Snapshot())
	}
	return st
}

func (c *cluster) close() {
	for _, n := range c.nets {
		n.Close()
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func conserved(t *testing.T, st Stats) {
	t.Helper()
	if st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Fatalf("conservation violated: Sent=%d Delivered=%d Dropped=%d Overflow=%d (diff %d)",
			st.Sent, st.Delivered, st.Dropped, st.Overflow,
			st.Sent-st.Delivered-st.Dropped-st.Overflow)
	}
}

func TestTransportDelivery(t *testing.T) {
	c := newCluster(t, Config{Seed: 1, N: 4, Procs: 1, BasePort: 19310}, 10*time.Millisecond)
	defer c.close()
	c.start(t)
	waitFor(t, 5*time.Second, func() bool {
		return c.requests.Load() >= 20 && c.replies.Load() >= 20
	}, "request/reply traffic over loopback TCP")
	st := c.settle(t)
	conserved(t, st)
	if st.Delivered == 0 {
		t.Fatal("no deliveries counted")
	}
	c.close()
	conserved(t, c.sum())
}

func TestTransportTwoProcs(t *testing.T) {
	c := newCluster(t, Config{Seed: 2, N: 8, Procs: 2, BasePort: 19320}, 10*time.Millisecond)
	defer c.close()
	c.start(t)
	waitFor(t, 5*time.Second, func() bool { return c.requests.Load() >= 50 }, "cross-process traffic")
	// Per-process stats must show both sides participating.
	for p, n := range c.nets {
		if st := n.Snapshot(); st.Sent == 0 || st.Delivered == 0 {
			t.Fatalf("proc %d idle: %+v", p, st)
		}
	}
	st := c.settle(t)
	conserved(t, st)
}

// TestTransportConservationUnderStress forces every outcome bucket at
// once — loss model, dead hosts, and inbox/queue overflow — and checks
// the conservation law over the summed counters at quiescence.
func TestTransportConservationUnderStress(t *testing.T) {
	cfg := Config{Seed: 3, N: 16, Procs: 2, BasePort: 19330, InboxSize: 2, QueueSize: 8, Drop: 0.2}
	c := newCluster(t, cfg, 2*time.Millisecond)
	defer c.close()
	c.start(t)
	waitFor(t, 5*time.Second, func() bool { return c.sum().Sent >= 2000 }, "stress traffic")

	// Kill a host on each process mid-flight, let traffic target it, then
	// respawn it.
	var victims []*Host
	for _, n := range c.nets {
		victims = append(victims, n.LocalHosts()[0])
	}
	for _, h := range victims {
		h.Kill()
	}
	time.Sleep(50 * time.Millisecond)
	for _, h := range victims {
		if err := h.Respawn(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)

	st := c.settle(t)
	conserved(t, st)
	if st.Dropped == 0 {
		t.Error("loss model injected no drops")
	}
	for _, h := range victims {
		if got := h.Stats().Incarnations; got != 2 {
			t.Errorf("victim incarnations = %d, want 2", got)
		}
	}
	c.close()
	conserved(t, c.sum())
}

// TestTransportReconnectBackoff starts the second process only after the
// first has been dialing (and backing off) for a while: queued frames
// must survive the down window and deliver once the peer comes up.
func TestTransportReconnectBackoff(t *testing.T) {
	cfg := Config{Seed: 4, N: 4, Procs: 2, BasePort: 19340, MaxBackoff: 100 * time.Millisecond}
	cfg = cfg.withDefaults()
	ids := id.Unique(cfg.N, cfg.Seed+0x11)
	var handled atomic.Int64

	mk := func(proc int) *Network {
		pc := cfg
		pc.Proc = proc
		n, err := New(pc)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range n.LocalHosts() {
			pg := &pinger{
				self:     peer.Descriptor{ID: ids[h.Addr()], Addr: h.Addr()},
				n:        cfg.N,
				requests: &handled,
				replies:  &handled,
			}
			if err := h.Attach(core.ProtoID, pg, 10*time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}

	n0 := mk(0)
	defer n0.Close()
	if err := n0.Start(); err != nil {
		t.Fatal(err)
	}
	// Let proc 0 send into the void: its writer to proc 1 dials, fails,
	// and backs off with frames queued.
	time.Sleep(250 * time.Millisecond)
	if st := n0.Snapshot(); st.Sent == 0 {
		t.Fatal("proc 0 sent nothing during the down window")
	}

	n1 := mk(1)
	defer n1.Close()
	if err := n1.Start(); err != nil {
		t.Fatal(err)
	}
	before := n1.Snapshot().Delivered
	waitFor(t, 5*time.Second, func() bool { return n1.Snapshot().Delivered > before }, "delivery after reconnect")
}

func TestTransportPauseResume(t *testing.T) {
	c := newCluster(t, Config{Seed: 6, N: 4, Procs: 1, BasePort: 19360}, 5*time.Millisecond)
	defer c.close()
	c.start(t)
	waitFor(t, 5*time.Second, func() bool { return c.requests.Load() >= 10 }, "initial traffic")

	for _, n := range c.nets {
		n.PauseAll()
	}
	paused := c.requests.Load() + c.replies.Load()
	time.Sleep(100 * time.Millisecond)
	if got := c.requests.Load() + c.replies.Load(); got != paused {
		t.Fatalf("handlers ran while paused: %d -> %d", paused, got)
	}
	for _, n := range c.nets {
		n.ResumeAll()
	}
	waitFor(t, 5*time.Second, func() bool {
		return c.requests.Load()+c.replies.Load() > paused
	}, "traffic after resume")
}

// TestTransportLoopbackShortcut pins the engine contract for payloads the
// wire codec cannot carry: process-local deliveries hand the pointer over
// directly (and still honour the Recyclable retirement), remote ones
// panic.
type fakeMsg struct{ recycles *atomic.Int64 }

func (f *fakeMsg) Recycle() { f.recycles.Add(1) }

type fakeSender struct {
	to  peer.Addr
	msg proto.Message
}

func (f *fakeSender) Init(ctx proto.Context) { ctx.Send(f.to, f.msg) }
func (f *fakeSender) Tick(ctx proto.Context) {}
func (f *fakeSender) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
}

func TestTransportLoopbackShortcut(t *testing.T) {
	n, err := New(Config{Seed: 7, N: 2, Procs: 1, BasePort: 19370})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var recycles atomic.Int64
	hosts := n.LocalHosts()
	sender := &fakeSender{to: hosts[1].Addr(), msg: &fakeMsg{recycles: &recycles}}
	if err := hosts[0].Attach(core.ProtoID, sender, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := hosts[1].Attach(core.ProtoID, &pinger{n: 2, requests: new(atomic.Int64), replies: new(atomic.Int64)}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return recycles.Load() == 1 }, "local non-wire payload retired exactly once")
	st := n.Snapshot()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("loopback accounting: %+v", st)
	}
}
