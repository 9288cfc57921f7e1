package host_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
		for _, h := range hosts {
			awaitTicks(t, h, 2)
		}
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

// TestLifecycleCloseWhilePaused closes a network whose hosts are all
// parked: a parked host leaves when Close kills its incarnation, so Close
// returns, every host goroutine (and the link's) is gone, the hosts read
// Stopped, and Pause afterwards fails.
func TestLifecycleCloseWhilePaused(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19690, 95, 8, 0)
		hosts := attachEcho(t, rt, time.Millisecond)
		base := settledGoroutines()
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			awaitTicks(t, h, 2)
		}
		rt.PauseAll()
		awaitClose(t, rt)
		awaitGoroutines(t, "after Close", base)
		for _, h := range hosts {
			if !h.Stopped() {
				t.Errorf("host %d not Stopped after Close", h.Addr())
			}
		}
		if hosts[0].Pause() {
			t.Error("Pause succeeded after Close")
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
		for _, h := range hosts[:3] {
			awaitTicks(t, h, 2)
		}
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

// callback is one scheduled callback a witness saw: which binding's, Init
// or Tick, and when.
type callback struct {
	pid  proto.ProtoID
	init bool
	at   time.Time
}

// witness appends its scheduled callbacks to a log its host's bindings
// share. The log is a plain slice — one goroutine per host is the claim —
// so a test reads it only while the host is parked or killed.
type witness struct {
	pid proto.ProtoID
	log *[]callback
}

func (w witness) Init(proto.Context)                             { *w.log = append(*w.log, callback{w.pid, true, time.Now()}) }
func (w witness) Tick(proto.Context)                             { *w.log = append(*w.log, callback{w.pid, false, time.Now()}) }
func (w witness) Handle(proto.Context, peer.Addr, proto.Message) {}

// attachWitnesses binds two periodic witnesses, half a period apart, and a
// reactive one to h.
func attachWitnesses(t *testing.T, h *host.Host, log *[]callback, period time.Duration) {
	t.Helper()
	for i, sched := range [][2]time.Duration{{period, 0}, {period, period / 2}, {0, 0}} {
		pid := core.ProtoID + 1 + proto.ProtoID(i)
		if err := h.Attach(pid, witness{pid, log}, sched[0], sched[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// await polls until ok reports true; past its bound it fails the test
// with what was still missing.
func await(t *testing.T, ok func() bool, missing func() string) {
	t.Helper()
	const bound = 10 * time.Second
	for deadline := time.Now().Add(bound); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("within %v: %s", bound, missing())
		}
	}
}

// awaitTicks waits until h has run at least want ticks in all.
func awaitTicks(t *testing.T, h *host.Host, want int64) {
	t.Helper()
	await(t, func() bool { return h.Stats().Ticks >= want }, func() string {
		return fmt.Sprintf("host %d ran %d ticks, want %d", h.Addr(), h.Stats().Ticks, want)
	})
}

// TestLifecycleParkedHostOwesOneTick parks a host through five of its
// periods: nothing runs while it is parked, each periodic binding runs the
// one tick it owes as soon as the host resumes — not five — and its next
// tick comes no sooner than a full period later, not at the old phase.
func TestLifecycleParkedHostOwesOneTick(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const period = 60 * time.Millisecond
		rt := e.build(t, 19650, 91, 1, 0)
		h := rt.LocalHosts()[0]
		var log []callback
		attachWitnesses(t, h, &log, period)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		awaitTicks(t, h, 2)
		if !h.Pause() {
			t.Fatal("Pause failed")
		}
		parked := len(log)
		time.Sleep(5*period + period/2)
		if len(log) != parked {
			t.Errorf("%d scheduled callbacks ran on a parked host", len(log)-parked)
		}
		resumed := time.Now()
		h.Resume()
		awaitTicks(t, h, h.Stats().Ticks+6) // three more of each binding
		h.Kill()
		// Counted, not timed: the loop reads its clock after Resume and
		// schedules the tick after the owed one a period past that reading,
		// so a second tick inside the first period is a catch-up tick
		// however the goroutines were scheduled; none means the owed tick
		// was not run on Resume.
		for pid := core.ProtoID + 1; pid <= core.ProtoID+2; pid++ {
			early := 0
			for _, c := range log[parked:] {
				if c.pid == pid && c.at.Before(resumed.Add(period)) {
					early++
				}
			}
			if early != 1 {
				t.Errorf("binding %d ran %d ticks within one period (%v) of Resume, want exactly the one it owed", pid, early, period)
			}
		}
	})
}

// TestLifecycleInitPrecedesFirstTick checks the order of a binding's
// scheduled callbacks on every incarnation: exactly one Init, before any
// Tick, for periodic and reactive bindings alike, after Respawn as at
// Start.
func TestLifecycleInitPrecedesFirstTick(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19660, 92, 1, 0)
		h := rt.LocalHosts()[0]
		var log []callback
		attachWitnesses(t, h, &log, 4*time.Millisecond)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for inc := int64(1); inc <= 3; inc++ {
			awaitTicks(t, h, h.Stats().Ticks+4)
			h.Kill()
			for pid := core.ProtoID + 1; pid <= core.ProtoID+3; pid++ {
				inits, ticks := 0, 0
				for _, c := range log {
					if c.pid != pid {
						continue
					}
					if !c.init {
						ticks++
						continue
					}
					inits++
					if ticks > 0 {
						t.Errorf("incarnation %d: binding %d ran Init after %d ticks", inc, pid, ticks)
					}
				}
				if reactive := pid == core.ProtoID+3; inits != 1 || (ticks == 0) != reactive {
					t.Errorf("incarnation %d: binding %d (reactive: %v) ran %d inits and %d ticks", inc, pid, reactive, inits, ticks)
				}
			}
			if got := h.Stats().Incarnations; got != inc {
				t.Errorf("incarnations = %d, want %d", got, inc)
			}
			log = log[:0]
			if err := h.Respawn(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// rally returns every message it handles to its sender, so two hosts keep
// traffic flowing with no tick behind it.
type rally struct {
	to      peer.Addr
	serves  int // balls served by Init
	stop    *atomic.Bool
	handled atomic.Int64
}

func (p *rally) Init(ctx proto.Context) {
	for i := 0; i < p.serves; i++ {
		ctx.Send(p.to, core.NewMessage())
	}
}
func (p *rally) Tick(proto.Context) {}
func (p *rally) Handle(ctx proto.Context, from peer.Addr, _ proto.Message) {
	p.handled.Add(1)
	if !p.stop.Load() {
		ctx.Send(from, core.NewMessage())
	}
}

// TestLifecycleStopTicksEndsTheSchedule checks that StopTicks retires the
// schedule and nothing else: no Init and no Tick runs again — not on a
// host respawned afterwards either — while deliveries keep being handled.
func TestLifecycleStopTicksEndsTheSchedule(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const period = 4 * time.Millisecond
		rt := e.build(t, 19670, 93, 3, 0)
		hosts := rt.LocalHosts()
		var stop atomic.Bool
		players := []*rally{
			{to: hosts[1].Addr(), serves: 4, stop: &stop},
			{to: hosts[0].Addr(), stop: &stop},
		}
		logs := make([][]callback, len(hosts))
		for i, h := range hosts {
			if i < len(players) {
				if err := h.Attach(core.ProtoID, players[i], 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			attachWitnesses(t, h, &logs[i], period)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			awaitTicks(t, h, 2)
		}
		hosts[2].Kill()
		rt.StopTicks()
		if err := hosts[2].Respawn(); err != nil {
			t.Fatal(err)
		}
		// A callback under way when StopTicks landed has returned once
		// its host has parked; from here on none may start.
		rt.PauseAll()
		ticks, seen := make([]int64, len(hosts)), make([]int, len(hosts))
		for i, h := range hosts {
			ticks[i], seen[i] = h.Stats().Ticks, len(logs[i])
		}
		handled := players[1].handled.Load()
		rt.ResumeAll()

		time.Sleep(6 * period)
		await(t, func() bool { return players[1].handled.Load() >= handled+100 }, func() string {
			return fmt.Sprintf("deliveries stalled after StopTicks: %d handled, want 100", players[1].handled.Load()-handled)
		})
		stop.Store(true)
		rt.PauseAll()
		for i, h := range hosts {
			if got := h.Stats().Ticks - ticks[i]; got != 0 {
				t.Errorf("host %d ran %d ticks after StopTicks", i, got)
			}
			if got := logs[i][seen[i]:]; len(got) != 0 {
				t.Errorf("host %d ran scheduled callbacks after StopTicks: %+v", i, got)
			}
		}
		rt.ResumeAll()
		quiesceAndClose(t, rt)
	})
}

// flood sends a burst at one target every tick.
type flood struct {
	to    peer.Addr
	burst int
}

func (p flood) Init(proto.Context) {}
func (p flood) Tick(ctx proto.Context) {
	for i := 0; i < p.burst; i++ {
		ctx.Send(p.to, core.NewMessage())
	}
}
func (p flood) Handle(proto.Context, peer.Addr, proto.Message) {}

// slow takes a millisecond over every message.
type slow struct{}

func (slow) Init(proto.Context)                             {}
func (slow) Tick(proto.Context)                             {}
func (slow) Handle(proto.Context, peer.Addr, proto.Message) { time.Sleep(time.Millisecond) }

// TestLifecycleFloodedHostKeepsTicking holds a live host's inbox at its
// bound — arrivals far outpace its handler, so Overflow keeps counting —
// and checks that its own ticks still run: the schedule does not queue
// behind deliveries, so traffic cannot silence a host's gossip.
func TestLifecycleFloodedHostKeepsTicking(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const (
			period  = 5 * time.Millisecond
			periods = 40
		)
		rt := e.build(t, 19680, 94, 5, 8)
		hosts := rt.LocalHosts()
		victim := hosts[0]
		if err := victim.Attach(core.ProtoID, slow{}, period, 0); err != nil {
			t.Fatal(err)
		}
		for i, h := range hosts[1:] {
			offset := time.Duration(i) * time.Millisecond / 4
			if err := h.Attach(core.ProtoID, flood{to: victim.Addr(), burst: 32}, time.Millisecond, offset); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		await(t, func() bool { return victim.Stats().Overflow > 0 }, func() string {
			return "the flood never filled the victim's inbox"
		})
		before := victim.Stats()
		time.Sleep(periods * period)
		after := victim.Stats()
		if after.Overflow == before.Overflow {
			t.Error("the flood let up: no overflow counted during the window")
		}
		if got := after.Ticks - before.Ticks; got < periods/4 {
			t.Errorf("flooded host ran %d ticks in %d periods (%v), want at least %d: deliveries are starving the schedule",
				got, periods, periods*period, periods/4)
		}
		quiesceAndClose(t, rt)
	})
}
