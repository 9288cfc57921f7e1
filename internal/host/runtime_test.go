package host_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/testenv"
)

// fakeLink is an in-memory host.Link that takes every exit the seam
// offers, in rotation: deliver at once, hold until Close and then strand,
// bounce as overflow, lose on the link. Arrivals for addresses the runtime
// does not own are lost, as a socket to a dead process would lose them.
type fakeLink struct {
	rt             *host.Runtime
	starts, closes atomic.Int32
	turn           atomic.Int64
	mu             sync.Mutex
	held           []heldMsg
}

type heldMsg struct {
	from, to peer.Addr
	pid      proto.ProtoID
	msg      proto.Message
}

func (l *fakeLink) Start() error { l.starts.Add(1); return nil }

func (l *fakeLink) Send(from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	switch turn := l.turn.Add(1) % 8; {
	case !l.rt.Local(to), turn == 0:
		l.rt.Drop(msg)
	case turn == 1:
		l.rt.Overflow(msg)
	case turn == 2:
		l.mu.Lock()
		l.held = append(l.held, heldMsg{from, to, pid, msg})
		l.mu.Unlock()
	default:
		l.rt.Deliver(from, to, pid, msg)
	}
}

// Close delivers half of what it held — after the hosts are gone, so the
// arrivals can only be dropped at Deliver — and drops the rest.
func (l *fakeLink) Close() {
	l.closes.Add(1)
	for i, h := range l.held {
		if i%2 == 0 {
			l.rt.Deliver(h.from, h.to, h.pid, h.msg)
		} else {
			l.rt.Drop(h.msg)
		}
	}
}

// sprayer sends a burst of counting messages per tick, walking the
// address space: owned hosts, the remote address, and one past the end.
type sprayer struct {
	led   *testenv.Ledger
	addrs int
	next  int
}

func (s *sprayer) Init(proto.Context) {}
func (s *sprayer) Tick(ctx proto.Context) {
	for i := 0; i < 8; i++ {
		ctx.Send(peer.Addr(s.next%(s.addrs+1)), s.led.New())
		s.next++
	}
}
func (s *sprayer) Handle(proto.Context, peer.Addr, proto.Message) {}

// TestRuntimeConservationAndExactlyOnceRecycle drives the runtime over a
// fake link through every way a message can end — loss model, partition,
// unknown address, remote address, unbound protocol, live and dead full
// inboxes, Kill's and Close's inbox drains, link drop, link overflow,
// stranded on the link, arrival after stop — and checks the two laws the
// runtime owns: the counters conserve at Close, and every message is
// retired exactly once.
func TestRuntimeConservationAndExactlyOnceRecycle(t *testing.T) {
	const n = 6
	link := &fakeLink{}
	rt := host.New(11, 0.1, 2, link)
	link.rt = rt
	led := &testenv.Ledger{}
	for i := 0; i < n; i++ {
		h := rt.AddHost()
		pid := proto.ProtoID(9)
		if i == n-1 {
			pid = 8 // traffic for 9 arrives at a host that never bound it
		}
		if err := h.Attach(pid, &sprayer{led: led, addrs: n + 1}, time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
	}
	rt.AddRemote() // address n: known, not ours
	rt.SetPartition(func(from, to peer.Addr) bool { return from == 0 && to == 1 })
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	hosts := rt.LocalHosts()
	testenv.Await(t, "a delivery", func() bool { return rt.Snapshot().Delivered > 0 })
	if !hosts[1].Pause() { // inbox fills under a live host: Overflow
		t.Fatal("Pause failed")
	}
	hosts[2].Kill() // inbox fills under a dead host: Dropped, then drained
	testenv.Await(t, "the paused host's inbox to overflow", func() bool { return hosts[1].Stats().Overflow > 0 })
	hosts[2].Kill()
	if err := hosts[2].Respawn(); err != nil {
		t.Fatal(err)
	}
	handled, ticks := hosts[1].Stats().Delivered, hosts[2].Stats().Ticks
	hosts[1].Resume()
	awaitTicks(t, hosts[2], ticks+2)
	testenv.Await(t, "a delivery at the resumed host", func() bool { return hosts[1].Stats().Delivered > handled })
	rt.Close()
	rt.Close()

	if s, c := link.starts.Load(), link.closes.Load(); s != 1 || c != 1 {
		t.Errorf("link started %d times and closed %d times, want 1 and 1", s, c)
	}
	st := rt.Snapshot()
	if st.Sent != led.Issued.Load() {
		t.Errorf("Sent = %d, protocols issued %d", st.Sent, led.Issued.Load())
	}
	if st.Delivered == 0 || st.Dropped == 0 || st.Overflow == 0 {
		t.Errorf("not every outcome exercised: %+v", st)
	}
	checkConservation(t, st)
	if hosts[1].Stats().Overflow == 0 {
		t.Error("paused host's full inbox recorded no overflow")
	}
	led.Check(t)
}

// TestRuntimeCloseWithoutStart pins the other half of Link.Close's
// contract: the link is closed exactly once even if it was never started.
func TestRuntimeCloseWithoutStart(t *testing.T) {
	link := &fakeLink{}
	rt := host.New(12, 0, 4, link)
	link.rt = rt
	rt.AddHost()
	rt.Close()
	if s, c := link.starts.Load(), link.closes.Load(); s != 0 || c != 1 {
		t.Errorf("link started %d times and closed %d times, want 0 and 1", s, c)
	}
	if err := rt.Start(); err != host.ErrClosed {
		t.Errorf("Start after Close = %v, want ErrClosed", err)
	}
}

// TestRuntimeGoroutineBudget pins what a host costs: one goroutine per live
// incarnation, however many periodic bindings it carries and however many
// arrivals it holds for their latency, and none that outlives a Kill or the
// Close. It runs on livenet with a latency window set: the link starts no
// goroutine of its own, so the held arrivals wait on the hosts' own timers.
func TestRuntimeGoroutineBudget(t *testing.T) {
	const n, k = 40, 7
	rt := livenet.New(livenet.Config{Seed: 13, InboxSize: 4}).Runtime
	rt.SetLatency(time.Millisecond, 3*time.Millisecond)
	led := &testenv.Ledger{}
	for i := 0; i < n; i++ {
		h := rt.AddHost()
		for pid := proto.ProtoID(8); pid <= 9; pid++ {
			if err := h.Attach(pid, &sprayer{led: led, addrs: n}, time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := settledGoroutines(t)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	hosts := rt.LocalHosts()
	// Both bindings of every host are past Init and ticking before the
	// first count, so whatever a periodic binding costs is being paid.
	for _, h := range hosts {
		awaitTicks(t, h, 4)
	}
	testenv.Await(t, "a held arrival", func() bool { return rt.Held() > 0 })
	awaitGoroutines(t, "after Start", base+n)
	for _, h := range hosts[:k] {
		h.Kill()
	}
	awaitGoroutines(t, "after Kill", base+n-k)
	for _, h := range hosts[:k] {
		if err := h.Respawn(); err != nil {
			t.Fatal(err)
		}
	}
	awaitGoroutines(t, "after Respawn", base+n)
	rt.Close()
	awaitGoroutines(t, "after Close", base)
	if h := rt.Held(); h != 0 {
		t.Errorf("%d arrivals still held after Close", h)
	}
	checkConservation(t, rt.Snapshot())
}

// settledGoroutines returns the process's goroutine count once it has held
// still for 20 polls: an earlier test's runner goroutine may still be on
// its way out.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	base, still := -1, 0
	testenv.Await(t, "the goroutine count to hold still", func() bool {
		if g := runtime.NumGoroutine(); g != base {
			base, still = g, 0
		} else {
			still++
		}
		return still >= 20
	})
	return base
}

// awaitClose runs rt.Close and fails the test if it does not return.
func awaitClose(t *testing.T, rt *host.Runtime) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	testenv.Await(t, "Close to return", func() bool { return isClosed(closed) })
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// awaitGoroutines waits for the process to hold exactly want goroutines.
func awaitGoroutines(t *testing.T, when string, want int) {
	t.Helper()
	testenv.Await(t, fmt.Sprintf("%d goroutines %s", want, when), func() bool { return runtime.NumGoroutine() == want })
}

// TestRuntimeCloseRacesRespawn runs Close while a goroutine loops
// Kill/Respawn on a ticking host. Close kills whatever incarnation each
// host holds when it looks, so a Respawn either installed its incarnation
// before Close set closing — and Close kills it — or returns ErrClosed:
// Close returns, no host goroutine outlives it, and the accounting holds.
// Once Close has begun the loop stops after its next successful Respawn
// instead of killing again, so the incarnation it leaves is Close's to end.
func TestRuntimeCloseRacesRespawn(t *testing.T) {
	const n = 4
	link := &fakeLink{}
	rt := host.New(14, 0.1, 2, link)
	link.rt = rt
	led := &testenv.Ledger{}
	for i := 0; i < n; i++ {
		if err := rt.AddHost().Attach(9, &sprayer{led: led, addrs: n}, time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
	}
	base := settledGoroutines(t)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	h := rt.LocalHosts()[0]
	awaitTicks(t, h, 2)

	var closing atomic.Bool
	churned := make(chan error, 1)
	go func() {
		for {
			h.Kill()
			if err := h.Respawn(); err != nil || closing.Load() {
				churned <- err
				return
			}
		}
	}()
	testenv.Await(t, "20 incarnations of the churned host", func() bool { return h.Stats().Incarnations >= 20 })
	closing.Store(true)
	awaitClose(t, rt)
	if err := <-churned; err != nil && err != host.ErrClosed {
		t.Errorf("churn loop ended with %v, want nil or ErrClosed", err)
	}
	awaitGoroutines(t, "after Close", base)
	if err := h.Respawn(); err != host.ErrClosed {
		t.Errorf("Respawn after Close = %v, want ErrClosed", err)
	}
	for _, h := range rt.LocalHosts() {
		if !h.Stopped() {
			t.Errorf("host %d not Stopped after Close", h.Addr())
		}
	}
	st := rt.Snapshot()
	if st.Sent != led.Issued.Load() {
		t.Errorf("Sent = %d, protocols issued %d", st.Sent, led.Issued.Load())
	}
	checkConservation(t, st)
	led.Check(t)
}
