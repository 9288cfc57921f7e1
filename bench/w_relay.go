package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// relayShared is what the hosts of one relay network have in common.
type relayShared struct {
	hosts, entries int
	pool           []peer.Descriptor // read-only descriptor source for message bodies
	// stop ends the closed loop: a host that handles a message after stop
	// is set forwards nothing, so the network drains and the conservation
	// check sees every ball accounted for.
	stop atomic.Bool
}

// relayProto is the null protocol: one ball is launched per host from
// Init, and every Handle forwards one fresh message to a random host of
// the opposite parity. With as many balls in flight as hosts — far below
// every inbox and queue bound — losing one is a bug, not load shedding.
// Opposite parity makes every hop cross the socket when two shards split
// the hosts by parity.
type relayProto struct {
	sh   *relayShared
	self peer.Descriptor
}

var _ proto.Protocol = (*relayProto)(nil)

func (p *relayProto) Init(ctx proto.Context) { p.forward(ctx) }
func (p *relayProto) Tick(proto.Context)     {}
func (p *relayProto) Handle(ctx proto.Context, _ peer.Addr, _ proto.Message) {
	if !p.sh.stop.Load() {
		p.forward(ctx)
	}
}

func (p *relayProto) forward(ctx proto.Context) {
	to := peer.Addr(2*ctx.Rand().Intn(p.sh.hosts/2) + 1 - int(p.self.Addr)%2)
	ctx.Send(to, relayMessage(p.self, p.sh.pool, p.sh.entries))
}

// counters are the traffic counts every engine keeps.
type counters struct{ sent, delivered, dropped, overflow int64 }

func (c counters) lost() int64 { return c.dropped + c.overflow }

// relayNet is one relay network on one engine, ready to run.
type relayNet struct {
	sh    *relayShared
	stats func() counters
	// advance runs the network for one measurement window and returns how
	// long it took: a slice of virtual time under simnet, a sleep under
	// the free-running engines.
	advance func() time.Duration
	// drain stops the loop and waits until nothing is in flight.
	drain func() error
	close func()
}

// relayHosts builds the protocols of a relay network. They are never
// decorated: at millions of messages a second a span per message would be
// most of the cost, so the traced run wraps whole windows only and takes
// the relay's own share from a direct measurement (relayHandleNS).
func relayHosts(rc *runCtx, entries int) (*relayShared, []proto.Protocol) {
	n := rc.sz.relayHosts
	sh := &relayShared{hosts: n, entries: entries}
	ids := id.Unique(max(n, fullEntries), rc.seed+0x7e1a)
	sh.pool = make([]peer.Descriptor, len(ids))
	for i, v := range ids {
		sh.pool[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i % n)}
	}
	protos := make([]proto.Protocol, n)
	for i := range protos {
		protos[i] = &relayProto{sh: sh, self: peer.Descriptor{ID: ids[i], Addr: peer.Addr(i)}}
	}
	return sh, protos
}

func newRelaySim(rc *runCtx, sc *scope, entries int) (*relayNet, error) {
	defer sc.open(spSetup)()
	sh, protos := relayHosts(rc, entries)
	net := simnet.New(simnet.Config{Seed: rc.seed})
	for _, p := range protos {
		if err := net.Attach(net.AddNode(), proto.BootstrapID, p, 0, 0); err != nil {
			return nil, err
		}
	}
	run := func(until int64) {
		defer sc.openEngine(spSimRun)()
		net.Run(until)
	}
	return &relayNet{
		sh: sh,
		stats: func() counters {
			st := net.Stats()
			return counters{st.Sent, st.Delivered, st.Dropped + st.DeadDest, 0}
		},
		advance: func() time.Duration {
			t0 := time.Now()
			run(net.Now() + rc.sz.relayChunk)
			return time.Since(t0)
		},
		drain: func() error {
			sh.stop.Store(true)
			run(net.Now() + 2) // instant delivery: latency is one tick
			return nil
		},
		close: func() {},
	}, nil
}

// awaitFirstHops waits until every ball has made its first hop, which on
// the socket engine means both connections are up.
func awaitFirstHops(n *relayNet) error {
	deadline := time.Now().Add(10 * time.Second)
	for n.stats().delivered < int64(n.sh.hosts) {
		if time.Now().After(deadline) {
			return fmt.Errorf("relay: only %d of %d balls delivered 10s after start", n.stats().delivered, n.sh.hosts)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// awaitDrained polls until every sent message has an outcome.
func awaitDrained(stats func() counters) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := stats()
		if c.sent == c.delivered+c.lost() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("relay: not drained after 10s: %+v", c)
		}
		time.Sleep(time.Millisecond)
	}
}

func newRelayLive(rc *runCtx, sc *scope, entries int) (*relayNet, error) {
	closeSetup := sc.open(spSetup)
	sh, protos := relayHosts(rc, entries)
	net := livenet.New(livenet.Config{Seed: rc.seed})
	for _, p := range protos {
		if err := net.AddHost().Attach(proto.BootstrapID, p, 0, 0); err != nil {
			return nil, err
		}
	}
	closeSetup()
	done := sc.open(spLiveStart)
	err := net.Start()
	done()
	if err != nil {
		return nil, err
	}
	stats := func() counters {
		st := net.Snapshot()
		return counters{st.Sent, st.Delivered, st.Dropped, st.Overflow}
	}
	n := &relayNet{
		sh:    sh,
		stats: stats,
		advance: func() time.Duration {
			defer sc.openEngine(spLiveRun)()
			t0 := time.Now()
			time.Sleep(rc.sz.relayWindow)
			return time.Since(t0)
		},
		drain: func() error {
			sh.stop.Store(true)
			return awaitDrained(stats)
		},
		close: func() {
			defer sc.open(spLiveClose)()
			net.Close()
		},
	}
	if err := awaitFirstHops(n); err != nil {
		net.Close()
		return nil, err
	}
	return n, nil
}

// freePortPair finds two adjacent free TCP ports on loopback by binding
// them, starting from a seed-dependent base above the ranges the
// repository's tests use.
func freePortPair(seed int64) (int, error) {
	base := 21000 + int(uint64(seed)%500)*2
	for try := 0; try < 2000; try++ {
		p := base + 2*try
		if p+1 > 65000 {
			break
		}
		l0, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			continue
		}
		l1, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p+1))
		l0.Close()
		if err != nil {
			continue
		}
		l1.Close()
		return p, nil
	}
	return 0, errors.New("relay: no free adjacent port pair on loopback")
}

// newRelaySock builds the relay over two in-process transport shards that
// own the even and the odd hosts: two TCP connections, one each way, and
// every hop crosses one of them.
func newRelaySock(rc *runCtx, sc *scope, entries int) (*relayNet, error) {
	closeSetup := sc.open(spSetup)
	sh, protos := relayHosts(rc, entries)
	base, err := freePortPair(rc.seed)
	if err != nil {
		return nil, err
	}
	var nets [2]*transport.Network
	for proc := range nets {
		n, err := transport.New(transport.Config{Seed: rc.seed, N: sh.hosts, Procs: 2, Proc: proc, BasePort: base})
		if err != nil {
			return nil, err
		}
		for _, h := range n.LocalHosts() {
			if err := h.Attach(proto.BootstrapID, protos[h.Addr()], 0, 0); err != nil {
				return nil, err
			}
		}
		nets[proc] = n
	}
	closeSetup()
	closeAll := func() {
		for _, n := range nets {
			n.Close()
		}
	}
	done := sc.open(spSockStart)
	for _, n := range nets {
		if err = n.Start(); err != nil {
			break
		}
	}
	done()
	if err != nil {
		closeAll()
		return nil, err
	}
	stats := func() counters {
		var c counters
		for _, n := range nets {
			st := n.Snapshot()
			c.sent += st.Sent
			c.delivered += st.Delivered
			c.dropped += st.Dropped
			c.overflow += st.Overflow
		}
		return c
	}
	n := &relayNet{
		sh:    sh,
		stats: stats,
		advance: func() time.Duration {
			defer sc.openEngine(spSockRun)()
			t0 := time.Now()
			time.Sleep(rc.sz.relayWindow)
			return time.Since(t0)
		},
		drain: func() error {
			sh.stop.Store(true)
			defer sc.open(spSockQuiesce)()
			if err := awaitDrained(stats); err != nil {
				return err
			}
			for _, n := range nets {
				if !n.Quiesce(5 * time.Second) {
					return errors.New("relay: transport did not quiesce")
				}
			}
			return nil
		},
		close: func() {
			defer sc.open(spSockClose)()
			closeAll()
		},
	}
	if err := awaitFirstHops(n); err != nil {
		closeAll()
		return nil, err
	}
	return n, nil
}

type relayCtor func(rc *runCtx, sc *scope, entries int) (*relayNet, error)

// relayMeasure is what one timed relay region produced.
type relayMeasure struct {
	rates     []float64 // delivered per second, one per window
	delivered int64
	cpu       time.Duration
	io        procIO
	ioErr     error
	final     counters // after the drain
}

// measureRelay runs n for the given time in windows, then drains it and
// checks the zero-loss and conservation invariants.
func measureRelay(rc *runCtx, n *relayNet, seconds float64) (*relayMeasure, error) {
	for spent := time.Duration(0); spent < rc.sz.relayWarmup; {
		spent += n.advance()
	}
	m := &relayMeasure{}
	io0, ioErr := readProcIO(procSelfIO)
	cpu0, first := cpuTime(), n.stats().delivered
	prev := first
	for spent := time.Duration(0); spent.Seconds() < seconds; {
		wall := n.advance()
		cur := n.stats().delivered
		m.rates = append(m.rates, float64(cur-prev)/wall.Seconds())
		prev = cur
		spent += wall
	}
	m.cpu, m.delivered = cpuTime()-cpu0, prev-first
	if io1, err := readProcIO(procSelfIO); err != nil || ioErr != nil {
		m.ioErr = errors.Join(ioErr, err)
	} else {
		m.io = io1.sub(io0)
	}
	if err := n.drain(); err != nil {
		return nil, err
	}
	m.final = n.stats()
	return m, nil
}

// checkRelay applies the relay gates to a drained network's counters.
func checkRelay(res *result, c counters) {
	res.Attempted += c.sent
	res.Failed += c.lost()
	if c.lost() != 0 {
		res.fail("relay lost messages: %+v", c)
	}
	if c.sent != c.delivered+c.lost() {
		res.fail("relay conservation violated at quiescence: %+v", c)
	}
}

// runRelay is the four relay workloads: one engine, one message size.
func runRelay(rc *runCtx, build relayCtor, entries int) error {
	if rc.tr != nil {
		return traceRelay(rc, build, entries)
	}
	res := rc.res

	// Cheap set-ups repeat until their median is steady.
	var setups []float64
	for spent := time.Duration(0); len(setups) < rc.sz.setupReps || (spent < 300*time.Millisecond && len(setups) < 1000); {
		var n *relayNet
		wall, _, err := timeTrial(func() (err error) {
			n, err = build(rc, nil, entries)
			return err
		})
		if err != nil {
			return err
		}
		n.close()
		setups = append(setups, wall.Seconds())
		spent += wall
	}
	res.set("setup_s", setups...)

	n, err := build(rc, nil, entries)
	if err != nil {
		return err
	}
	defer n.close()
	runtime.GC()
	m, err := measureRelay(rc, n, rc.seconds)
	if err != nil {
		return err
	}
	checkRelay(res, m.final)
	res.set("work_per_s", m.rates...)
	res.set("cpu_us_per_work", float64(m.cpu.Microseconds())/float64(m.delivered))
	res.set("peak_rss_mb", float64(peakRSSBytes())/1e6)
	return nil
}

// traceRelay measures one network bare and a second one under harness
// spans, half the time each. The per-message costs come from the first;
// the second gives the start, quiesce and close timings, and the two rates
// show what the spans cost (nothing, beyond run-to-run noise).
func traceRelay(rc *runCtx, build relayCtor, entries int) error {
	res := rc.res
	bare, err := build(rc, nil, entries)
	if err != nil {
		return err
	}
	runtime.GC()
	mb, err := measureRelay(rc, bare, rc.seconds/2)
	bare.close()
	if err != nil {
		return err
	}
	checkRelay(res, mb.final)

	sc := rc.tr.newScope()
	closeTrial := sc.open(spTrial)
	t0 := time.Now()
	traced, err := build(rc, sc, entries)
	if err != nil {
		return err
	}
	runtime.GC()
	mt, err := measureRelay(rc, traced, rc.seconds/2)
	traced.close()
	closeTrial()
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	checkRelay(res, mt.final)

	if err := runDirect(rc); err != nil {
		return err
	}
	s := rc.tr.summarize()
	traceCommon(res, s, float64(wall.Nanoseconds()))
	res.set("trace_overhead_frac", median(mb.rates)/median(mt.rates)-1)
	perMsg := float64(mb.cpu.Nanoseconds()) / float64(mb.delivered)
	c := mb.final
	switch rc.tr.engineName {
	case "simnet":
		// A delivery costs the engine what is left of it once the
		// relay's own Handle, measured directly, is taken out.
		res.set("simnet.dispatch_ns", 1e9/median(mb.rates)-res.Metrics["bench.relay_handle_ns"].Value)
		res.set("simnet.events", float64(mb.final.delivered))
	case "livenet":
		res.set("livenet.cpu_ns_per_msg", perMsg)
		res.set("livenet.overflow_frac", float64(c.overflow)/float64(c.sent))
		res.set("livenet.dropped_frac", float64(c.dropped)/float64(c.sent))
	case "transport":
		res.set("transport.cpu_ns_per_msg", perMsg)
		res.set("transport.overflow_frac", float64(c.overflow)/float64(c.sent))
		res.set("transport.dropped_frac", float64(c.dropped)/float64(c.sent))
		conserved := 0.0
		if c.sent == c.delivered+c.lost() {
			conserved = 1
		}
		res.set("transport.conserved", conserved)
		if mb.ioErr != nil {
			res.note("unavailable: /proc/self/io: %v", mb.ioErr)
			for _, name := range []string{"transport.write_syscalls_per_msg", "transport.read_syscalls_per_msg", "transport.bytes_per_msg"} {
				res.set(name, -1)
			}
		} else {
			d := float64(mb.delivered)
			res.set("transport.write_syscalls_per_msg", float64(mb.io.syscw)/d)
			res.set("transport.read_syscalls_per_msg", float64(mb.io.syscr)/d)
			res.set("transport.bytes_per_msg", float64(mb.io.wchar)/d)
		}
	}
	return nil
}

// nullContext is the engine-free context relayHandleNS drives a relay
// host with: sends are retired on the spot.
type nullContext struct {
	self peer.Addr
	rng  *rand.Rand
}

func (c *nullContext) Self() peer.Addr  { return c.self }
func (c *nullContext) Now() int64       { return 0 }
func (c *nullContext) Rand() *rand.Rand { return c.rng }
func (c *nullContext) Send(_ peer.Addr, m proto.Message) {
	m.(proto.Recyclable).Recycle()
}

// relayHandleNS times the relay's Handle alone, at the smallest message.
func relayHandleNS(rc *runCtx) []float64 {
	_, protos := relayHosts(rc, smallEntries)
	ctx := &nullContext{rng: rand.New(rand.NewSource(rc.seed))}
	return timeOp(rc.sz.directBudget, 4096, func() { protos[0].Handle(ctx, 1, nil) })
}

func runRelaySim(rc *runCtx) error       { return runRelay(rc, newRelaySim, smallEntries) }
func runRelayLive(rc *runCtx) error      { return runRelay(rc, newRelayLive, smallEntries) }
func runRelaySockSmall(rc *runCtx) error { return runRelay(rc, newRelaySock, smallEntries) }
func runRelaySockFull(rc *runCtx) error  { return runRelay(rc, newRelaySock, fullEntries) }
