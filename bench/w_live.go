package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/truth"
)

func liveParams(rc *runCtx) experiment.LiveParams {
	return experiment.LiveParams{
		N: rc.sz.liveN, Config: core.DefaultConfig(), Period: rc.sz.livePeriod,
		Cycles: rc.sz.liveCycles, Scenario: livenet.ScenarioChurn, MeasureWorkers: 1,
	}
}

// liveOutcome is one live trial, from experiment.RunLive or the harness.
type liveOutcome struct {
	nodeCycles  float64 // live nodes summed over the measured cycles
	convergedAt int
	stats       livenet.Stats
	ticks       int64         // harness only: tick callbacks the hosts ran
	runCPU      time.Duration // harness only: process CPU while hosts ran
	killUS      []float64     // harness only: one sample per host killed
	// sends and entries count bootstrap messages and the descriptors in
	// them (traced harness only).
	sends, entries int64
}

func liveOutcomeOf(res *experiment.LiveResult) *liveOutcome {
	o := &liveOutcome{convergedAt: res.ConvergedAt, stats: res.Stats}
	for _, pt := range res.Points {
		o.nodeCycles += float64(pt.Alive)
	}
	return o
}

type liveMember struct {
	desc  peer.Descriptor
	host  *livenet.Host
	node  *core.Node
	dec   *tracedProto
	alive bool
}

// liveHarness re-creates experiment.RunLive for the oracle sampler and
// kill/respawn scenarios from the packages' public functions, with the
// same seeded identities and fault plan, so spans and decorators can sit
// at the layer boundaries. Message interleaving is the scheduler's, so
// unlike the simulated harness the outcome only matches statistically.
type liveHarness struct {
	p       experiment.LiveParams
	seed    int64
	tr      *tracer
	sc      *scope
	net     *livenet.Network
	members []*liveMember
	ids     []id.ID
	oracle  *sampling.Oracle
	rng     *rand.Rand
}

// setup builds the hosts and their bootstrap nodes and starts the network.
func (h *liveHarness) setup() error {
	p := h.p
	closeSetup := h.sc.open(spSetup)
	h.net = livenet.New(livenet.Config{Seed: h.seed})
	h.ids = id.Unique(p.N, h.seed+0x11)
	descs := make([]peer.Descriptor, p.N)
	h.members = make([]*liveMember, p.N)
	for i := range descs {
		host := h.net.AddHost()
		descs[i] = peer.Descriptor{ID: h.ids[i], Addr: host.Addr()}
		h.members[i] = &liveMember{desc: descs[i], host: host, alive: true}
	}
	h.oracle = sampling.NewOracle(descs, h.seed+0x1234)
	h.rng = rand.New(rand.NewSource(h.seed + 0x9e3779b9))
	cfg := p.Config
	cfg.Arena = peer.NewDescriptorArena()
	for i, m := range h.members {
		var sampler sampling.Service = h.oracle.Stream(int64(i))
		if h.tr != nil {
			m.dec = newTracedProto(h.tr, nil, spCoreInit, spCoreTick, spCoreHandle)
			sampler = &tracedSampler{inner: h.oracle.Stream(int64(i)), d: m.dec}
		}
		done := h.sc.open(spCoreNew)
		node, err := core.NewNode(m.desc, cfg, sampler)
		done()
		if err != nil {
			return err
		}
		m.node = node
		var p0 proto.Protocol = node
		if m.dec != nil {
			m.dec.inner = node
			p0 = m.dec
		}
		offset := time.Duration(h.rng.Int63n(int64(p.Period)))
		if err := m.host.Attach(core.ProtoID, p0, p.Period, offset); err != nil {
			return err
		}
	}
	closeSetup()
	defer h.sc.open(spLiveStart)()
	return h.net.Start()
}

func (h *liveHarness) close() {
	defer h.sc.open(spLiveClose)()
	h.net.Close()
}

// trial runs the campaign: scenario events at cycle boundaries, one period
// of free running, then a stop-the-world measurement.
func (h *liveHarness) trial() (*liveOutcome, error) {
	defer h.sc.open(spTrial)()
	p := h.p
	if err := h.setup(); err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			h.net.Close()
		}
	}()

	schedule := p.Scenario.Events(h.seed, p.N, p.Cycles)
	byCycle := make(map[int][]livenet.Event)
	lastEvent := -1
	for _, e := range schedule {
		byCycle[e.Cycle] = append(byCycle[e.Cycle], e)
		lastEvent = max(lastEvent, e.Cycle)
	}
	done := h.sc.open(spTruthNew)
	tr, err := truth.New(h.ids, p.Config.B, p.Config.K, p.Config.C)
	done()
	if err != nil {
		return nil, err
	}

	out := &liveOutcome{convergedAt: -1}
	var measBuf []truth.Member
	for cycle := 0; cycle < p.Cycles; cycle++ {
		closeRun := h.sc.openEngine(spLiveRun)
		cpu0 := cpuTime()
		for _, e := range byCycle[cycle] {
			added, removed, err := h.apply(e, out)
			if err != nil {
				return nil, err
			}
			done := h.sc.open(spTruthUpdate)
			err = tr.Update(added, removed)
			done()
			if err != nil {
				return nil, err
			}
		}
		time.Sleep(p.Period)
		out.runCPU += cpuTime() - cpu0
		closeRun()

		done := h.sc.open(spLivePause)
		h.net.PauseAll()
		done()
		ms := measBuf[:0]
		for _, m := range h.members {
			if m.alive {
				ms = append(ms, truth.Member{Self: m.desc.ID, Leaf: m.node.Leaf(), Table: m.node.Table()})
			}
		}
		measBuf = ms
		done = h.sc.open(spTruthMeasureAll)
		agg := tr.MeasureAll(ms, p.MeasureWorkers)
		done()
		done = h.sc.open(spLiveResume)
		h.net.ResumeAll()
		done()

		out.nodeCycles += float64(len(ms))
		if agg.LeafMissing == 0 && agg.PrefixMissing == 0 && cycle >= lastEvent {
			out.convergedAt = cycle
			break
		}
	}
	for _, m := range h.members {
		out.ticks += m.host.Stats().Ticks
		if m.dec != nil {
			out.sends += m.dec.sends
			out.entries += m.dec.entries
		}
	}
	h.close()
	closed = true
	out.stats = h.net.Snapshot()
	return out, nil
}

// apply executes one scenario event and returns the membership delta.
func (h *liveHarness) apply(e livenet.Event, out *liveOutcome) (added, removed []id.ID, err error) {
	switch e.Op {
	case livenet.OpKill:
		var alive []*liveMember
		for _, m := range h.members {
			if m.alive {
				alive = append(alive, m)
			}
		}
		k := int(e.Frac * float64(len(alive)))
		if k == 0 && e.Frac > 0 {
			k = 1
		}
		k = min(k, len(alive)-2)
		if k <= 0 {
			return nil, nil, nil
		}
		perm := h.rng.Perm(len(alive))
		defer h.sc.open(spLiveKill)()
		// The wave is killed in parallel, as RunLive does: each Kill
		// blocks until the victim's goroutine has exited.
		durs := make([]float64, k)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			victim := alive[perm[i]]
			victim.alive = false
			h.oracle.Remove(victim.desc.ID)
			removed = append(removed, victim.desc.ID)
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				victim.host.Kill()
				durs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			}()
		}
		wg.Wait()
		out.killUS = append(out.killUS, durs...)
		return nil, removed, nil
	case livenet.OpRespawn:
		for _, m := range h.members {
			if m.alive {
				continue
			}
			done := h.sc.open(spLiveRespawn)
			err := m.host.Respawn()
			done()
			if err != nil {
				return added, nil, err
			}
			m.alive = true
			h.oracle.Add(m.desc)
			added = append(added, m.desc.ID)
		}
		return added, nil, nil
	default:
		return nil, nil, fmt.Errorf("live harness: scenario op %v not supported", e.Op)
	}
}

func runLiveHarness(p experiment.LiveParams, seed int64, tr *tracer) (*liveOutcome, error) {
	h := &liveHarness{p: p, seed: seed, tr: tr, sc: tr.newScope()}
	return h.trial()
}

func runChurnLive(rc *runCtx) error {
	if rc.tr != nil {
		return traceChurnLive(rc)
	}
	res, p := rc.res, liveParams(rc)

	var setups []float64
	for i := 0; i < rc.sz.setupReps; i++ {
		h := &liveHarness{p: p, seed: rc.trialSeed(0)}
		wall, _, err := timeTrial(h.setup)
		if err != nil {
			return err
		}
		h.close()
		setups = append(setups, wall.Seconds())
	}
	res.set("setup_s", setups...)

	var rates, cpus []float64
	var spent time.Duration
	for i := 0; spent.Seconds() < rc.seconds; i++ {
		var out *liveOutcome
		wall, cpu, err := timeTrial(func() error {
			lr, err := experiment.RunLive(p, rc.trialSeed(i))
			if err == nil {
				out = liveOutcomeOf(lr)
			}
			return err
		})
		if err != nil {
			return err
		}
		spent += wall
		if out.convergedAt < 0 {
			res.fail("live trial with seed %d did not converge within %d cycles", rc.trialSeed(i), p.Cycles)
		}
		res.Attempted += out.stats.Sent
		res.Failed += out.stats.Overflow
		rates = append(rates, out.nodeCycles/wall.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/out.nodeCycles)
	}
	res.set("work_per_s", rates...)
	res.set("cpu_us_per_work", cpus...)
	res.set("peak_rss_mb", float64(peakRSSBytes())/1e6)
	return nil
}

// traceChurnLive runs one seed three ways — experiment.RunLive, the bare
// harness, the traced harness — and compares them by CPU per node-cycle,
// the only cost a wall-clock-paced engine has.
func traceChurnLive(rc *runCtx) error {
	res, p, seed := rc.res, liveParams(rc), rc.trialSeed(0)
	var cost [3]float64
	var traced *liveOutcome
	var tracedWall time.Duration
	for m := range cost {
		var out *liveOutcome
		wall, cpu, err := timeTrial(func() (err error) {
			switch m {
			case 0:
				var lr *experiment.LiveResult
				if lr, err = experiment.RunLive(p, seed); err == nil {
					out = liveOutcomeOf(lr)
				}
			case 1:
				out, err = runLiveHarness(p, seed, nil)
			default:
				out, err = runLiveHarness(p, seed, rc.tr)
			}
			return err
		})
		if err != nil {
			return err
		}
		if out.convergedAt < 0 {
			res.fail("live trial (mode %d) did not converge within %d cycles", m, p.Cycles)
		}
		res.Attempted += out.stats.Sent
		res.Failed += out.stats.Overflow
		cost[m] = float64(cpu.Microseconds()) / out.nodeCycles
		traced, tracedWall = out, wall
	}

	s := rc.tr.summarize()
	traceCommon(res, s, float64(tracedWall.Nanoseconds()))
	st := traced.stats
	callbacks := s.kinds[spCoreInit].sumDur + s.kinds[spCoreTick].sumDur + s.kinds[spCoreHandle].sumDur - s.kinds[spSend].sumDur
	if st.Delivered > 0 {
		res.set("livenet.dispatch_ns", float64(traced.runCPU.Nanoseconds()-callbacks)/float64(st.Delivered))
	}
	if len(traced.killUS) > 0 {
		res.set("livenet.kill_us", traced.killUS...)
	}
	res.set("livenet.overflow_frac", float64(st.Overflow)/float64(st.Sent))
	res.set("livenet.dropped_frac", float64(st.Dropped)/float64(st.Sent))
	res.set("livenet.ticks_skipped_frac", max(0, 1-float64(traced.ticks)/traced.nodeCycles))
	res.set("core.msgs_per_node_cycle", float64(traced.sends)/traced.nodeCycles)
	if traced.sends > 0 {
		res.set("core.entries_per_msg", float64(traced.entries)/float64(traced.sends))
	}
	if ticks := s.kinds[spCoreTick].n; ticks > 0 {
		res.set("sampling.calls_per_tick", float64(s.kinds[spSample].n)/float64(ticks))
	}
	res.set("experiment.converged_cycle", float64(traced.convergedAt))
	res.set("experiment.overhead_ratio", cost[0]/cost[1])
	res.set("trace_overhead_frac", cost[2]/cost[1]-1)
	return runDirect(rc)
}
