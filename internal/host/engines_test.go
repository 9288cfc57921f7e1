package host_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/transport"
)

// engine builds the same runtime over one real link.
type engine struct {
	name string
	// closeConserves: a bare Close settles the accounting exactly. In
	// memory it does; a socket Close without a quiesce first can strand
	// bytes in the kernel, so there outcomes may fall short of sends.
	closeConserves bool
	// build returns a runtime of n hosts; port is a loopback port no
	// other test binds.
	build func(t *testing.T, port int, seed int64, n, inbox int) *host.Runtime
}

// The lifecycle is written once, so every case below runs on both links:
// the goroutine engine and the socket engine (one process, loopback TCP —
// every message still crosses the kernel).
var engines = []engine{
	{"livenet", true, func(t *testing.T, _ int, seed int64, n, inbox int) *host.Runtime {
		net := livenet.New(livenet.Config{Seed: seed, InboxSize: inbox})
		for i := 0; i < n; i++ {
			net.AddHost()
		}
		return net.Runtime
	}},
	{"transport", false, func(t *testing.T, port int, seed int64, n, inbox int) *host.Runtime {
		net, err := transport.New(transport.Config{Seed: seed, N: n, Procs: 1, BasePort: port, InboxSize: inbox})
		if err != nil {
			t.Fatal(err)
		}
		return net.Runtime
	}},
}

func onEngines(t *testing.T, fn func(t *testing.T, e engine)) {
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) { fn(t, e) })
	}
}

// echo sends a wire-encodable message to a target on every tick and counts
// what it handles. Counters are plain ints: the runtime serialises all
// callbacks per host, which is exactly what -race verifies.
type echo struct {
	targets []peer.Addr
	handled int
}

func (p *echo) Init(proto.Context) {}
func (p *echo) Tick(ctx proto.Context) {
	if len(p.targets) > 0 {
		ctx.Send(p.targets[ctx.Rand().Intn(len(p.targets))], core.NewMessage())
	}
}
func (p *echo) Handle(proto.Context, peer.Addr, proto.Message) { p.handled++ }

// attachEcho makes every host tick each period and ping a random peer.
func attachEcho(t *testing.T, rt *host.Runtime, period time.Duration) []*host.Host {
	t.Helper()
	hosts := rt.LocalHosts()
	addrs := make([]peer.Addr, len(hosts))
	for i, h := range hosts {
		addrs[i] = h.Addr()
	}
	for i, h := range hosts {
		offset := time.Duration(i) * period / time.Duration(len(hosts))
		if err := h.Attach(core.ProtoID, &echo{targets: addrs}, period, offset); err != nil {
			t.Fatal(err)
		}
	}
	return hosts
}

func conserved(st host.Stats) bool { return st.Sent == st.Delivered+st.Dropped+st.Overflow }

func checkConservation(t *testing.T, st host.Stats) {
	t.Helper()
	if !conserved(st) {
		t.Errorf("counter conservation violated at quiescence: sent=%d != delivered=%d + dropped=%d + overflow=%d (sum %d)",
			st.Sent, st.Delivered, st.Dropped, st.Overflow, st.Delivered+st.Dropped+st.Overflow)
	}
}

// checkBareClose audits the counters after a Close nothing prepared.
func (e engine) checkBareClose(t *testing.T, st host.Stats) {
	t.Helper()
	if e.closeConserves {
		checkConservation(t, st)
	} else if st.Delivered+st.Dropped+st.Overflow > st.Sent {
		t.Errorf("more outcomes than sends after Close: %+v", st)
	}
}

// quiesceAndClose brings any engine to an exact cut before closing it:
// stop the tick sources, revive every host so no inbox holds traffic for
// the dead, and wait until every send has met its outcome — which, with
// the ticks stopped, is when nothing is left in an inbox, a queue or the
// kernel. Close must then keep the law.
func quiesceAndClose(t *testing.T, rt *host.Runtime) {
	t.Helper()
	rt.StopTicks()
	for _, h := range rt.LocalHosts() {
		if err := h.Respawn(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !conserved(rt.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("traffic never settled: %+v", rt.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.Close()
	checkConservation(t, rt.Snapshot())
}

// TestLifecycleKillRespawnSnapshotRace hammers the lifecycle API from
// several goroutines at once — random Kill/Respawn, Pause/Resume sweeps,
// and stats snapshots — while traffic flows. Run with -race; correctness
// here is "no race, no deadlock, outcomes never exceed sends, counters
// conserved at quiescence".
func TestLifecycleKillRespawnSnapshotRace(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const n = 24
		rt := e.build(t, 19600, 31, n, 16)
		hosts := attachEcho(t, rt, time.Millisecond)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		stopCh := make(chan struct{})
		// Churn goroutines: concurrent Kill/Respawn of overlapping host
		// sets, including double-kill and respawn-while-respawning paths.
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					h := hosts[rng.Intn(n)]
					if rng.Intn(2) == 0 {
						h.Kill()
					} else if err := h.Respawn(); err != nil {
						return // network closing
					}
				}
			}(int64(g))
		}
		// Snapshot goroutine: consistent cuts plus per-host stats.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				st := rt.Snapshot()
				if st.Sent < 0 || st.Delivered+st.Dropped+st.Overflow > st.Sent {
					t.Errorf("implausible snapshot: %+v", st)
					return
				}
				for _, h := range hosts {
					_ = h.Stats()
				}
			}
		}()
		// Pause/Resume sweeps against the churn.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				rt.PauseAll()
				rt.ResumeAll()
			}
		}()

		time.Sleep(150 * time.Millisecond)
		close(stopCh)
		wg.Wait()
		quiesceAndClose(t, rt)
	})
}

// TestLifecycleSendToDeadHost checks that messages addressed to a killed
// host are accounted for and that the host handles traffic again after
// Respawn with its state intact.
func TestLifecycleSendToDeadHost(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19610, 41, 2, 0)
		a, b := rt.LocalHosts()[0], rt.LocalHosts()[1]
		pb := &echo{}
		if err := a.Attach(core.ProtoID, &echo{targets: []peer.Addr{b.Addr()}}, time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Attach(core.ProtoID, pb, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		b.Kill()
		if !b.Stopped() {
			t.Fatal("killed host not Stopped")
		}
		b.Kill() // idempotent
		time.Sleep(30 * time.Millisecond)

		// Reading pb is safe: Kill waited for the host goroutine.
		handledWhileDead := pb.handled
		if handledWhileDead == 0 {
			t.Error("no traffic handled before the kill")
		}
		if err := b.Respawn(); err != nil {
			t.Fatal(err)
		}
		if b.Stopped() {
			t.Error("respawned host still Stopped")
		}
		time.Sleep(30 * time.Millisecond)
		quiesceAndClose(t, rt)
		if pb.handled <= handledWhileDead {
			t.Error("respawned host handled no new messages")
		}
		if got := b.Stats().Incarnations; got != 2 {
			t.Errorf("incarnations = %d, want 2", got)
		}
		if rt.Snapshot().Dropped == 0 {
			t.Error("traffic to the dead host recorded no drops")
		}
	})
}

// TestLifecycleAfterClose pins the shutdown paths: Close is idempotent,
// Kill after Close must not hang, Respawn after Close reports ErrClosed,
// Pause after Close reports failure, Start after Close fails.
func TestLifecycleAfterClose(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19620, 61, 4, 0)
		hosts := attachEcho(t, rt, time.Millisecond)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		rt.Close()
		rt.Close() // idempotent
		hosts[0].Kill()
		if err := hosts[1].Respawn(); err != host.ErrClosed {
			t.Errorf("Respawn after Close = %v, want ErrClosed", err)
		}
		if hosts[2].Pause() {
			t.Error("Pause succeeded after Close")
		}
		if err := rt.Start(); err == nil {
			t.Error("Start after Close should fail")
		}
		e.checkBareClose(t, rt.Snapshot())
	})
}

// TestLifecycleKillBeforeStart kills a host before Start: the network
// must come up without it and Close cleanly.
func TestLifecycleKillBeforeStart(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19630, 71, 4, 0)
		hosts := attachEcho(t, rt, time.Millisecond)
		hosts[3].Kill()
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		rt.Close()
		if got := hosts[3].Stats().Incarnations; got != 0 {
			t.Errorf("pre-start-killed host ran %d incarnations", got)
		}
		if got := hosts[0].Stats().Incarnations; got != 1 {
			t.Errorf("live host ran %d incarnations, want 1", got)
		}
		e.checkBareClose(t, rt.Snapshot())
	})
}

// TestLifecycleAttachAfterStart pins the seal: once the runtime has
// started, host goroutines hold interior pointers into the bindings
// slice, so Attach must refuse rather than append. A duplicate pid is
// refused before Start too.
func TestLifecycleAttachAfterStart(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19640, 81, 2, 0)
		hosts := attachEcho(t, rt, time.Millisecond)
		if err := hosts[0].Attach(core.ProtoID, &echo{}, 0, 0); err == nil {
			t.Error("duplicate attach accepted")
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if err := hosts[0].Attach(core.ProtoID+1, &echo{}, time.Millisecond, 0); err == nil {
			t.Error("Attach on a started runtime accepted")
		}
		hosts[1].Kill()
		if err := hosts[1].Attach(core.ProtoID+1, &echo{}, 0, 0); err == nil {
			t.Error("Attach on a killed host of a started runtime accepted")
		}
	})
}
