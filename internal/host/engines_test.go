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
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/testenv"
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
	testenv.Await(t, "traffic to settle", func() bool { return conserved(rt.Snapshot()) })
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
		var churned, sweeps atomic.Int64
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
					churned.Add(1)
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
				sweeps.Add(1)
			}
		}()

		testenv.Await(t, "the pause sweeps and 2000 Kill/Respawn calls", func() bool {
			return sweeps.Load() == 20 && churned.Load() >= 2000
		})
		close(stopCh)
		wg.Wait()
		quiesceAndClose(t, rt)
	})
}

// TestLifecycleSendToDeadHost checks that a killed host handles nothing,
// that messages addressed to it are accounted for, that a second Kill is a
// no-op, and that the host handles traffic again after Respawn with its
// state intact.
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
		testenv.Await(t, "a delivery at host b", func() bool { return b.Stats().Delivered > 0 })
		b.Kill()
		if !b.Stopped() {
			t.Fatal("killed host not Stopped")
		}
		b.Kill() // a no-op: Respawn below still makes only the second incarnation
		// Reading pb is safe: Kill waited for the host goroutine.
		handledWhileDead := pb.handled
		if handledWhileDead == 0 {
			t.Error("no traffic handled before the kill")
		}
		// A dead host's inbox keeps filling; once it is full, each arrival
		// counts as dropped.
		testenv.Await(t, "a drop while host b is dead", func() bool { return rt.Snapshot().Dropped > 0 })
		if pb.handled != handledWhileDead {
			t.Errorf("dead host b handled %d messages", pb.handled-handledWhileDead)
		}
		deliveredWhileDead := b.Stats().Delivered
		if err := b.Respawn(); err != nil {
			t.Fatal(err)
		}
		if b.Stopped() {
			t.Error("respawned host still Stopped")
		}
		testenv.Await(t, "a delivery at the respawned host b", func() bool { return b.Stats().Delivered > deliveredWhileDead })
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
		base := settledGoroutines(t)
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

// awaitTicks waits until h has run at least want ticks in all.
func awaitTicks(t *testing.T, h *host.Host, want int64) {
	t.Helper()
	testenv.Await(t, fmt.Sprintf("tick %d of host %d", want, h.Addr()), func() bool { return h.Stats().Ticks >= want })
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
		time.Sleep(5*period + period/2) // a window over which the parked host must stay silent
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

		time.Sleep(6 * period) // a window over which no tick may run
		testenv.Await(t, "100 deliveries after StopTicks", func() bool { return players[1].handled.Load() >= handled+100 })
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

// slow takes a millisecond over every message and records, at each tick,
// how many it handled since the tick before.
type slow struct {
	handled int   // since the last tick
	between []int // one entry per tick
}

func (*slow) Init(proto.Context) {}
func (p *slow) Tick(proto.Context) {
	p.between = append(p.between, p.handled)
	p.handled = 0
}
func (p *slow) Handle(proto.Context, peer.Addr, proto.Message) {
	time.Sleep(time.Millisecond) // the handler's simulated work
	p.handled++
}

// TestLifecycleFloodedHostKeepsTicking holds a live host's inbox at its
// bound — arrivals far outpace its handler, so Overflow keeps counting —
// and checks that its own ticks still run, a few deliveries apart: the
// host takes one arrival per pass, so a tick that comes due waits for no
// backlog, and traffic cannot silence a host's gossip. Counted, not timed:
// a delivery takes at least a millisecond, so at most period/1ms of them
// fit before a tick is due, and from then on each pass takes the tick or
// an arrival at random; a run of 27 arrivals in a row has odds of 2^-27.
func TestLifecycleFloodedHostKeepsTicking(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const (
			period = 5 * time.Millisecond
			ticks  = 20
			most   = 32 // deliveries between two ticks
		)
		rt := e.build(t, 19680, 94, 5, 8)
		hosts := rt.LocalHosts()
		victim := hosts[0]
		p := &slow{}
		if err := victim.Attach(core.ProtoID, p, period, 0); err != nil {
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
		testenv.Await(t, "the flood to fill the victim's inbox", func() bool { return victim.Stats().Overflow > 0 })
		before := victim.Stats()
		testenv.Await(t, fmt.Sprintf("%d ticks of the flooded host", ticks), func() bool { return victim.Stats().Ticks >= before.Ticks+ticks })
		if victim.Stats().Overflow == before.Overflow {
			t.Error("the flood let up: no overflow counted while the host ticked")
		}
		if !victim.Pause() {
			t.Fatal("Pause failed")
		}
		for i, n := range p.between {
			if n > most {
				t.Errorf("tick %d waited for %d deliveries, want at most %d: deliveries are starving the schedule", i, n, most)
			}
		}
		victim.Resume()
		quiesceAndClose(t, rt)
	})
}

// courier sends one message to its target for every request, from its
// next tick: a protocol can only send from its host's goroutine.
type courier struct {
	to  peer.Addr
	req chan struct{}
}

func (p *courier) Init(proto.Context) {}
func (p *courier) Tick(ctx proto.Context) {
	select {
	case <-p.req:
		ctx.Send(p.to, core.NewMessage())
	default:
	}
}
func (p *courier) Handle(proto.Context, peer.Addr, proto.Message) {}

// signal is a reactive protocol that reports every message it handles.
type signal struct{ got chan struct{} }

func (signal) Init(proto.Context) {}
func (signal) Tick(proto.Context) {}
func (p signal) Handle(proto.Context, peer.Addr, proto.Message) {
	select {
	case p.got <- struct{}{}:
	default:
	}
}

// TestHeldArrivalRearmsTimer pins the wake rule of the held arrivals: a
// reactive host holding one arrival under a one-minute window sleeps
// toward that due time, and an arrival due earlier must re-arm its timer,
// so it is dispatched long before the far deadline. The receiver has no
// tick schedule, so only the held arrivals arm its timer.
func TestHeldArrivalRearmsTimer(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19700, 96, 2, 0)
		defer rt.Close()
		a, b := rt.LocalHosts()[0], rt.LocalHosts()[1]
		sender := &courier{to: b.Addr(), req: make(chan struct{}, 1)}
		got := make(chan struct{}, 1)
		if err := a.Attach(core.ProtoID, sender, time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Attach(core.ProtoID, signal{got}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		rt.SetLatency(time.Minute, time.Minute)
		sender.req <- struct{}{}
		testenv.Await(t, "the far arrival held", func() bool { return rt.Held() == 1 })
		rt.SetLatency(30*time.Millisecond, 30*time.Millisecond)
		sender.req <- struct{}{}
		testenv.Await(t, "the near arrival dispatched", func() bool { return len(got) == 1 })
		if h := rt.Held(); h != 1 {
			t.Errorf("%d arrivals held, want the far one", h)
		}
		rt.Close()
		if h := rt.Held(); h != 0 {
			t.Errorf("%d arrivals still held after Close", h)
		}
		e.checkBareClose(t, rt.Snapshot())
	})
}

// TestHeldArrivalsConservation kills, respawns and closes hosts while they
// hold arrivals under a window long enough that none comes due: the held
// list of each incarnation is dropped exactly once — Kill and Respawn race
// to drain the same incarnation — and after Close nothing is held, the
// counters conserve and every message was retired exactly once.
func TestHeldArrivalsConservation(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const n = 6
		rt := e.build(t, 19710, 97, n, 0)
		defer rt.Close()
		rt.SetLatency(time.Minute, 2*time.Minute)
		led := &testenv.Ledger{}
		hosts := rt.LocalHosts()
		for _, h := range hosts {
			if err := h.Attach(9, &sprayer{led: led, addrs: n}, time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		testenv.Await(t, "50 held arrivals", func() bool { return rt.Held() >= 50 })
		hosts[0].Kill()
		for i := 0; i < 20; i++ {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); hosts[1].Kill() }()
			go func() {
				defer wg.Done()
				if err := hosts[1].Respawn(); err != nil {
					t.Error(err)
				}
			}()
			wg.Wait()
			// Whichever went last, the next round races over an
			// incarnation that has run, and so holds arrivals to drain.
			if err := hosts[1].Respawn(); err != nil {
				t.Fatal(err)
			}
			ticks := hosts[1].Stats().Ticks
			testenv.Await(t, "a tick of the respawned host", func() bool { return hosts[1].Stats().Ticks > ticks })
		}
		// With the ticks stopped and every host revived (a Respawn drains
		// what reached the inbox while the host was dead), once every
		// message but the held ones has its outcome nothing is left in an
		// inbox, a queue or the kernel: Close then finds the held arrivals
		// and nothing else.
		rt.StopTicks()
		for _, h := range hosts {
			if err := h.Respawn(); err != nil {
				t.Fatal(err)
			}
		}
		testenv.Await(t, "every message but the held ones to settle", func() bool {
			st := rt.Snapshot()
			return st.Sent == st.Delivered+st.Dropped+st.Overflow+rt.Held()
		})
		held, before := rt.Held(), rt.Snapshot()
		if held == 0 {
			t.Fatal("nothing held at Close")
		}
		rt.Close()
		st := rt.Snapshot()
		if h := rt.Held(); h != 0 {
			t.Errorf("%d arrivals still held after Close", h)
		}
		if got := st.Dropped - before.Dropped; got != held {
			t.Errorf("Close dropped %d, want the %d held", got, held)
		}
		checkConservation(t, st)
		led.Check(t)
	})
}

// pitcher sends a burst to one host from its next tick for every request
// (a protocol can only send from its host's goroutine), numbered from zero:
// core messages carrying the number in Sender.ID, which cross the socket
// link, or ledger messages when led is set. sent counts the sends that
// have returned.
type pitcher struct {
	to   peer.Addr
	led  *testenv.Ledger
	req  chan int
	sent atomic.Int64
}

// seqMsg is a ledger message with its sender's number.
type seqMsg struct {
	*testenv.Counted
	seq int64
}

func (p *pitcher) Init(proto.Context) {}
func (p *pitcher) Tick(ctx proto.Context) {
	select {
	case k := <-p.req:
		for ; k > 0; k-- {
			seq := p.sent.Load()
			var m proto.Message
			if p.led != nil {
				m = &seqMsg{Counted: p.led.New(), seq: seq}
			} else {
				cm := core.NewMessage()
				cm.Sender = peer.Descriptor{ID: id.ID(seq), Addr: ctx.Self()}
				m = cm
			}
			ctx.Send(p.to, m)
			p.sent.Add(1)
		}
	default:
	}
}
func (p *pitcher) Handle(proto.Context, peer.Addr, proto.Message) {}

// catcher is a reactive protocol that checks every sender's numbers arrive
// in order: each message it handles must carry the next number of its
// sender.
type catcher struct {
	mu    sync.Mutex
	next  map[peer.Addr]int64
	wrong []string
}

func (c *catcher) Init(proto.Context) {}
func (c *catcher) Tick(proto.Context) {}
func (c *catcher) Handle(_ proto.Context, from peer.Addr, msg proto.Message) {
	var seq int64
	switch m := msg.(type) {
	case *core.Message:
		seq = int64(m.Sender.ID)
	case *seqMsg:
		seq = m.seq
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if want := c.next[from]; seq != want {
		c.wrong = append(c.wrong, fmt.Sprintf("from %d: got %d, want %d", from, seq, want))
	}
	c.next[from] = seq + 1
}

// checkOrder reports arrivals handled out of their sender's order.
func (c *catcher) checkOrder(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.wrong) > 0 {
		t.Errorf("%d arrivals out of send order, first %s", len(c.wrong), c.wrong[0])
	}
}

// mailboxNet builds n hosts with the given inbox bound and starts them:
// host 0 runs a catcher and every other host a pitcher aimed at it,
// ticking every millisecond.
func mailboxNet(t *testing.T, e engine, port, n, bound int, led *testenv.Ledger) (*host.Runtime, *catcher, []*pitcher) {
	t.Helper()
	rt := e.build(t, port, 98, n, bound)
	hosts := rt.LocalHosts()
	c := &catcher{next: map[peer.Addr]int64{}}
	if err := hosts[0].Attach(core.ProtoID, c, 0, 0); err != nil {
		t.Fatal(err)
	}
	var ps []*pitcher
	for _, h := range hosts[1:] {
		p := &pitcher{to: hosts[0].Addr(), led: led, req: make(chan int, 64)}
		if err := h.Attach(core.ProtoID, p, time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	return rt, c, ps
}

// TestMailboxExactBound fills a paused host's inbox past its 16-slot
// channel: exactly InboxSize arrivals are kept and the next one is
// Overflow; once the host is killed, the same flood keeps InboxSize
// arrivals (drained as Dropped) and the next one is Dropped too.
func TestMailboxExactBound(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const bound = 40
		rt, _, ps := mailboxNet(t, e, 19720, 2, bound, nil)
		b := rt.LocalHosts()[0]
		if !b.Pause() {
			t.Fatal("Pause failed")
		}
		ps[0].req <- bound + 1
		testenv.Await(t, "the arrival past the bound to overflow", func() bool { return b.Stats().Overflow == 1 })
		b.Resume()
		testenv.Await(t, "the kept arrivals delivered", func() bool { return b.Stats().Delivered == bound })

		b.Kill()
		before := rt.Snapshot()
		ps[0].req <- bound + 1
		testenv.Await(t, "the arrival past a dead host's full inbox dropped", func() bool { return rt.Snapshot().Dropped == before.Dropped+1 })
		time.Sleep(10 * time.Millisecond) // a window over which no stray outcome may show
		// Drain the full inbox.
		if err := b.Respawn(); err != nil {
			t.Fatal(err)
		}
		st := rt.Snapshot()
		if got := st.Dropped - before.Dropped; got != bound+1 {
			t.Errorf("dead host: %d dropped, want the %d kept plus the one past the bound", got, bound+1)
		}
		if st.Overflow != 1 || b.Stats().Overflow != 1 || st.Delivered != bound {
			t.Errorf("after the dead flood: %+v (host overflow %d), want overflow 1 and %d delivered",
				st, b.Stats().Overflow, bound)
		}
		quiesceAndClose(t, rt)
	})
}

// TestMailboxFIFO queues three bursts of 16 from one sender at a paused
// host, two of them behind its full channel, and checks they are handled
// in send order after Resume.
func TestMailboxFIFO(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const bursts, each = 3, 16
		rt, c, ps := mailboxNet(t, e, 19730, 2, 64, nil)
		b := rt.LocalHosts()[0]
		if !b.Pause() {
			t.Fatal("Pause failed")
		}
		for i := 0; i < bursts; i++ {
			ps[0].req <- each
		}
		testenv.Await(t, "every burst sent", func() bool { return ps[0].sent.Load() == bursts*each })
		b.Resume()
		testenv.Await(t, "every burst delivered", func() bool { return b.Stats().Delivered == bursts*each })
		c.checkOrder(t)
		quiesceAndClose(t, rt)
	})
}

// TestMailboxKillDropsSpill kills a paused host whose inbox holds 16
// arrivals in its channel and 32 in its spill: every one is counted
// Dropped and retired exactly once.
func TestMailboxKillDropsSpill(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const queued = 48
		led := &testenv.Ledger{}
		rt, _, ps := mailboxNet(t, e, 19740, 2, queued, led)
		b := rt.LocalHosts()[0]
		if !b.Pause() {
			t.Fatal("Pause failed")
		}
		ps[0].req <- queued
		testenv.Await(t, "every arrival sent", func() bool { return ps[0].sent.Load() == queued })
		b.Kill()
		st := rt.Snapshot()
		if st.Dropped != queued || st.Delivered != 0 || st.Overflow != 0 {
			t.Errorf("Kill of a full inbox: %+v, want all %d dropped", st, queued)
		}
		if retired := led.Retired.Load(); retired != queued {
			t.Errorf("%d of %d messages retired by the Kill", retired, queued)
		}
		rt.Close()
		checkConservation(t, rt.Snapshot())
		led.Check(t)
	})
}

// TestMailboxBurstHammer has several senders burst far past the 16-slot
// channel at once, first at a paused host and then while it drains, with
// an inbox bound no backlog can reach: every message must be delivered —
// none stranded in the spill — in its sender's order and retired exactly
// once, and the counters must conserve. Run with -race.
func TestMailboxBurstHammer(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const senders, rounds, each = 4, 8, 64
		const total = senders * rounds * each
		led := &testenv.Ledger{}
		rt, c, ps := mailboxNet(t, e, 19750, senders+1, total, led)
		b := rt.LocalHosts()[0]
		if !b.Pause() {
			t.Fatal("Pause failed")
		}
		for _, p := range ps {
			p.req <- each
		}
		for _, p := range ps {
			testenv.Await(t, "the first burst sent", func() bool { return p.sent.Load() == each })
		}
		b.Resume()
		// Each round goes out once the one before is sent, so rounds keep
		// arriving while the host drains.
		for r := 2; r <= rounds; r++ {
			for _, p := range ps {
				p.req <- each
			}
			for _, p := range ps {
				testenv.Await(t, fmt.Sprintf("burst %d sent", r), func() bool { return p.sent.Load() == int64(r*each) })
			}
		}
		testenv.Await(t, "every burst delivered", func() bool { return b.Stats().Delivered == total })
		c.checkOrder(t)
		quiesceAndClose(t, rt)
		if st := rt.Snapshot(); st.Sent != total || st.Overflow != 0 || st.Dropped != 0 {
			t.Errorf("%+v, want all %d sent and delivered", st, total)
		}
		led.Check(t)
	})
}

// awaitSilence is the check of a fault that loses every send: once every
// message sent before it has met its outcome, each later one is lost at
// its sender, so ten more sends are dropped and none is delivered.
func awaitSilence(t *testing.T, rt *host.Runtime, fault string) {
	t.Helper()
	var from host.Stats
	testenv.Await(t, "the sends before "+fault+" to land", func() bool {
		from = rt.Snapshot()
		return conserved(from)
	})
	testenv.Await(t, "ten sends lost to "+fault, func() bool { return rt.Snapshot().Dropped >= from.Dropped+10 })
	if got := rt.Snapshot().Delivered - from.Delivered; got != 0 {
		t.Errorf("%s delivered %d messages", fault, got)
	}
}

// TestLifecycleFaultModel flips the fault model while host a sends to host
// b every millisecond: drop 1 loses every send, a partition between the two
// hosts does the same, and healing it, with a latency window set, delivers
// again.
func TestLifecycleFaultModel(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		rt := e.build(t, 19760, 81, 2, 0)
		a, b := rt.LocalHosts()[0], rt.LocalHosts()[1]
		if err := a.Attach(core.ProtoID, &echo{targets: []peer.Addr{b.Addr()}}, time.Millisecond, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Attach(core.ProtoID, &echo{}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		testenv.Await(t, "a delivery", func() bool { return rt.Snapshot().Delivered > 0 })

		rt.SetDrop(1)
		awaitSilence(t, rt, "drop 1")
		rt.SetDrop(0)
		split := b.Addr()
		rt.SetPartition(func(from, to peer.Addr) bool { return (from < split) != (to < split) })
		awaitSilence(t, rt, "the partition")

		healed := rt.Snapshot().Delivered
		rt.SetPartition(nil)
		rt.SetLatency(time.Millisecond, 2*time.Millisecond)
		testenv.Await(t, "a delivery across the healed partition", func() bool { return rt.Snapshot().Delivered > healed })
		quiesceAndClose(t, rt)
	})
}

// TestLifecycleLossPathsRetireOnce sends counting messages through the
// loss model, a latency window, two-slot inboxes, unknown addresses and a
// killed host, and closes the runtime while arrivals are still queued and
// held: the counters keep the law and every message is retired exactly
// once. The counting messages have no wire encoding, so on the socket link
// they take its process-local path.
func TestLifecycleLossPathsRetireOnce(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const n = 12
		rt := e.build(t, 19770, 2, n, 2)
		rt.SetDrop(0.2)
		rt.SetLatency(time.Millisecond, 3*time.Millisecond)
		led := &testenv.Ledger{}
		hosts := rt.LocalHosts()
		for _, h := range hosts {
			if err := h.Attach(9, &sprayer{led: led, addrs: n}, 2*time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		testenv.Await(t, "a delivery", func() bool { return rt.Snapshot().Delivered > 0 })
		dropped := rt.Snapshot().Dropped
		hosts[0].Kill() // the dead destination, and the drain of its inbox and held arrivals
		testenv.Await(t, "a drop after the kill", func() bool { return rt.Snapshot().Dropped > dropped })
		rt.Close()

		st := rt.Snapshot()
		if st.Delivered == 0 || st.Dropped == 0 {
			t.Errorf("not every outcome exercised: %+v", st)
		}
		if h := rt.Held(); h != 0 {
			t.Errorf("%d arrivals still held after Close", h)
		}
		checkConservation(t, st)
		led.Check(t)
	})
}

// TestLifecycleFaultModelRace mutates the fault model from three
// goroutines while every host sends: the send path reads the drop
// probability and the partition predicate, and the arrival path the
// latency window, without a lock, so under -race this is the proof that
// hosts and control-plane writers never race — and, since the writers
// never block the hosts, that no message takes Runtime.mu.
func TestLifecycleFaultModelRace(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const n = 48
		rt := e.build(t, 19780, 31, n, 0)
		attachEcho(t, rt, 2*time.Millisecond)
		rt.SetLatency(0, 500*time.Microsecond)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		mutate := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						fn(i)
					}
				}
			}()
		}
		mutate(func(i int) { rt.SetDrop(float64(i%10) / 20) })
		mutate(func(i int) {
			min := time.Duration(i%3) * 100 * time.Microsecond
			rt.SetLatency(min, min*2)
		})
		mutate(func(i int) {
			if i%2 == 0 {
				split := peer.Addr(i % n)
				rt.SetPartition(func(from, to peer.Addr) bool { return (from < split) != (to < split) })
			} else {
				rt.SetPartition(nil)
			}
		})
		delivered := rt.Snapshot().Delivered
		testenv.Await(t, "1000 deliveries under the mutating fault model", func() bool { return rt.Snapshot().Delivered >= delivered+1000 })
		close(stop)
		wg.Wait()
		quiesceAndClose(t, rt)
	})
}

// flooder sends from its Init callback until stop closes. A protocol can
// only send from its host's goroutine, so n flooders are n concurrent
// senders, each on its own host — the send path's concurrency contract.
type flooder struct {
	stop <-chan struct{}
	to   func(self peer.Addr, j int) peer.Addr // target of the j-th send; nil: receive only
}

func (f *flooder) Init(ctx proto.Context) {
	for j := 0; f.to != nil; j++ {
		select {
		case <-f.stop:
			return
		default:
			ctx.Send(f.to(ctx.Self(), j), core.NewMessage())
		}
	}
}
func (f *flooder) Tick(proto.Context)                             {}
func (f *flooder) Handle(proto.Context, peer.Addr, proto.Message) {}

// floodNet builds n hosts: the first n/2 flood, the rest only receive (a
// flooder never leaves Init, so it would never take from its inbox).
func floodNet(t *testing.T, e engine, port int, seed int64, n int, stop <-chan struct{}, to func(self peer.Addr, j int) peer.Addr) *host.Runtime {
	t.Helper()
	rt := e.build(t, port, seed, n, 0)
	for i, h := range rt.LocalHosts() {
		f := &flooder{stop: stop}
		if i < n/2 {
			f.to = to
		}
		if err := h.Attach(core.ProtoID, f, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// TestHeldArrivalRace hammers the held arrivals: 32 hosts flood 32 others
// while every receiver holds what it takes from its inbox for a latency
// drawn from a window a mutator keeps swinging, under -race. Each host's
// held list is its own goroutine's, and its timer is re-armed for earlier
// and later arrivals as the window moves; after Close nothing is held and
// the counters account for every send.
func TestHeldArrivalRace(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const n = 64
		stop := make(chan struct{})
		rt := floodNet(t, e, 19790, 77, n, stop,
			func(self peer.Addr, j int) peer.Addr { return peer.Addr(n/2 + (int(self)+7*j)%(n/2)) })
		rt.SetLatency(20*time.Microsecond, 400*time.Microsecond)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		// Swing the window so due times range from tens of microseconds to
		// tens of milliseconds, and arrivals due earlier than the armed
		// timer keep re-arming it mid-sleep.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					min := time.Duration(1+i%5) * 50 * time.Microsecond
					rt.SetLatency(min, min*time.Duration(1+i%200))
				}
			}
		}()
		testenv.Await(t, "1000 deliveries of held arrivals", func() bool { return rt.Snapshot().Delivered >= 1000 })
		close(stop)
		wg.Wait()
		rt.Close()
		if h := rt.Held(); h != 0 {
			t.Errorf("%d arrivals still held after Close", h)
		}
		e.checkBareClose(t, rt.Snapshot())
	})
}

// TestHeldCloseRacesDrain closes the runtime while senders still flood and
// receivers still hold arrivals: Close kills every incarnation, then must
// wait the flooders out before it drains, so every arrival held at that
// point is counted dropped exactly once, and Close neither deadlocks nor
// loses one.
func TestHeldCloseRacesDrain(t *testing.T) {
	onEngines(t, func(t *testing.T, e engine) {
		const n = 32
		stop := make(chan struct{})
		rt := floodNet(t, e, 19800, 78, n, stop,
			func(_ peer.Addr, j int) peer.Addr { return peer.Addr(n/2 + j%(n/2)) })
		rt.SetLatency(10*time.Microsecond, 200*time.Microsecond)
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		testenv.Await(t, "a held arrival", func() bool { return rt.Held() > 0 })
		closed := make(chan struct{})
		go func() {
			rt.Close()
			close(closed)
		}()
		testenv.Await(t, "Close to kill every host", func() bool {
			for _, h := range rt.LocalHosts() {
				if !h.Stopped() {
					return false
				}
			}
			return true
		})
		close(stop) // the flooders, still sending, may leave now
		testenv.Await(t, "Close to return", func() bool { return isClosed(closed) })
		if h := rt.Held(); h != 0 {
			t.Errorf("%d arrivals still held after Close", h)
		}
		e.checkBareClose(t, rt.Snapshot())
	})
}
