package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// sizes are the input sizes of every workload. fullSizes is what the
// benchmark measures; toySizes lets the tests run every code path in
// well under a second each.
type sizes struct {
	simN        int // boot-sim and churn-sim network size
	gateN       int // churn-sim network size for the shard-count gate
	churnCycles int // churn-sim fixed cycle count
	setupReps   int // how many times a run sets up, for the setup_s median
	traceReps   int // boot-sim trials per mode in the traced run

	liveN      int
	livePeriod time.Duration
	liveCycles int

	relayHosts  int
	relayWindow time.Duration // window length of the live and socket relays
	relayChunk  int64         // virtual time units per simnet relay window
	relayWarmup time.Duration

	serveN       int
	serveKeys    int
	serveOps     int // operations per load cycle
	directBudget time.Duration
}

var fullSizes = sizes{
	simN: 4096, gateN: 512, churnCycles: 20, setupReps: 3, traceReps: 2,
	liveN: 2048, livePeriod: 200 * time.Millisecond, liveCycles: 30,
	relayHosts: 64, relayWindow: 500 * time.Millisecond, relayChunk: 40_000,
	relayWarmup: 500 * time.Millisecond,
	serveN:      4096, serveKeys: 65536, serveOps: 400_000,
	directBudget: 40 * time.Millisecond,
}

var toySizes = sizes{
	simN: 128, gateN: 64, churnCycles: 2, setupReps: 1, traceReps: 1,
	liveN: 128, livePeriod: 20 * time.Millisecond, liveCycles: 12,
	relayHosts: 8, relayWindow: 20 * time.Millisecond, relayChunk: 200,
	relayWarmup: 10 * time.Millisecond,
	serveN:      128, serveKeys: 512, serveOps: 2000,
	directBudget: time.Millisecond,
}

func bootParams(rc *runCtx, seed int64) experiment.Params {
	return experiment.Params{
		N: rc.sz.simN, Seed: seed, Config: core.DefaultConfig(),
		MaxCycles: 60, MeasureWorkers: 1,
	}
}

func churnParams(rc *runCtx, seed int64) experiment.Params {
	cfg := core.DefaultConfig()
	cfg.EvictAfterMisses = 2
	c := rc.sz.churnCycles
	return experiment.Params{
		N: rc.sz.simN, Seed: seed, Config: cfg, Shards: 2,
		Sampler: experiment.SamplerNewscast, WarmupCycles: 10, Drop: 0.1,
		Churn:         experiment.Churn{Rate: 0.01, StartCycle: 0, StopCycle: (c + 1) / 2},
		MeasureSample: rc.sz.simN / 8, MaxCycles: c, KeepRunningAfterPerfect: true,
	}
}

func runBootSim(rc *runCtx) error {
	return runSim(rc, bootParams, func(o *simOutcome) bool { return o.convergedAt >= 0 }, true)
}

func runChurnSim(rc *runCtx) error {
	// Gate: every shard count above one must produce the same trace.
	p2 := churnParams(rc, rc.trialSeed(0))
	p2.N, p2.MeasureSample = rc.sz.gateN, rc.sz.gateN/8
	p3 := p2
	p3.Shards = 3
	o2, err := runExperiment(p2)
	if err != nil {
		return err
	}
	o3, err := runExperiment(p3)
	if err != nil {
		return err
	}
	if o2.digest() != o3.digest() {
		rc.res.fail("churn-sim digest differs between Shards=2 (%s) and Shards=3 (%s)", o2.digest(), o3.digest())
	}
	// Under churn the run never reaches perfection; the overlay must
	// still be mostly built when the fixed cycles end.
	ok := func(o *simOutcome) bool {
		last := o.points[len(o.points)-1]
		return rc.sz.churnCycles < 10 || (last.LeafMissing < 0.25 && last.PrefixMissing < 0.25)
	}
	return runSim(rc, churnParams, ok, false)
}

// timeTrial runs fn after a collection and returns its wall and CPU time.
func timeTrial(fn func() error) (wall, cpu time.Duration, err error) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	err = fn()
	return time.Since(t0), cpuTime() - c0, err
}

// runSim is boot-sim and churn-sim: whole trials of experiment.Run until
// the time is up, one trial seed each. good is the per-trial outcome
// check; repeatGate adds a discarded warm-up trial on the first seed, whose
// outcome the first timed trial must repeat (churn-sim is warmed by its
// shard-count gate instead).
func runSim(rc *runCtx, params func(*runCtx, int64) experiment.Params, good func(*simOutcome) bool, repeatGate bool) error {
	if rc.tr != nil {
		return traceSim(rc, params)
	}
	res := rc.res

	var setups []float64
	for i := 0; i < rc.sz.setupReps; i++ {
		h, err := newSimHarness(params(rc, rc.trialSeed(0)), nil)
		if err != nil {
			return err
		}
		wall, _, err := timeTrial(h.setup)
		if err != nil {
			return err
		}
		setups = append(setups, wall.Seconds())
	}
	res.set("setup_s", setups...)

	// Warm-up trial, discarded: it fills the message and scratch pools and
	// grows the heap to its working size, and its digest is what the
	// first timed trial must repeat.
	var warm *simOutcome
	if repeatGate {
		var err error
		if warm, err = runExperiment(params(rc, rc.trialSeed(0))); err != nil {
			return err
		}
	}

	var rates, cpus []float64
	var spent time.Duration
	for i := 0; spent.Seconds() < rc.seconds; i++ {
		var out *simOutcome
		wall, cpu, err := timeTrial(func() (err error) {
			out, err = runExperiment(params(rc, rc.trialSeed(i)))
			return err
		})
		if err != nil {
			return err
		}
		spent += wall
		res.Attempted++
		res.Digests = append(res.Digests, out.digest())
		if !good(out) {
			res.Failed++
		}
		if i == 0 && repeatGate && out.digest() != warm.digest() {
			res.Failed++
			res.note("seed %d gave digest %s, then %s", rc.trialSeed(0), warm.digest(), out.digest())
		}
		work := out.nodeCycles()
		rates = append(rates, work/wall.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/work)
	}
	if res.Failed > 0 {
		res.fail("%d of %d trials failed their outcome check", res.Failed, res.Attempted)
	}
	res.set("work_per_s", rates...)
	res.set("cpu_us_per_work", cpus...)
	res.set("peak_rss_mb", float64(peakRSSBytes())/1e6)
	return nil
}

// traceSim is the traced run of a simulated workload. Per repetition it
// runs the same seed three ways — experiment.Run, the bench harness bare,
// the bench harness with decorators and spans — and all three must
// produce the same outcome digest.
func traceSim(rc *runCtx, params func(*runCtx, int64) experiment.Params) error {
	res := rc.res
	p := params(rc, rc.trialSeed(0))

	pm := p
	pm.MemStats = true
	warm, err := runExperiment(pm)
	if err != nil {
		return err
	}
	want := warm.digest()
	res.Digests = append(res.Digests, want)

	var viaRun, viaBare, viaTraced []float64
	var traced *simOutcome
	var tracedWall time.Duration
	for rep := 0; rep < rc.sz.traceReps; rep++ {
		rc.tr.trial.Store(int32(rep))
		var outs [3]*simOutcome
		modes := []struct {
			dst *[]float64
			fn  func() (*simOutcome, error)
		}{
			{&viaRun, func() (*simOutcome, error) { return runExperiment(p) }},
			{&viaBare, func() (*simOutcome, error) { return runHarness(p, nil) }},
			{&viaTraced, func() (*simOutcome, error) { return runHarness(p, rc.tr) }},
		}
		for m, mode := range modes {
			wall, _, err := timeTrial(func() (err error) {
				outs[m], err = mode.fn()
				return err
			})
			if err != nil {
				return err
			}
			*mode.dst = append(*mode.dst, wall.Seconds())
			res.Attempted++
			if d := outs[m].digest(); d != want {
				res.Failed++
				res.note("mode %d of repetition %d gave digest %s, want %s", m, rep, d, want)
			}
		}
		traced = outs[2]
		tracedWall += time.Duration(viaTraced[len(viaTraced)-1] * float64(time.Second))
	}

	if res.Failed > 0 {
		res.fail("%d of %d trials did not reproduce the outcome digest", res.Failed, res.Attempted)
	}
	s := rc.tr.summarize()
	wall := float64(tracedWall.Nanoseconds())
	traceCommon(res, s, wall)

	res.set("core.msgs_per_node_cycle", float64(traced.sends)/traced.nodeCycles())
	if traced.sends > 0 {
		res.set("core.entries_per_msg", float64(traced.entries)/float64(traced.sends))
	}
	res.set("core.wire_units_per_node_cycle", float64(traced.stats.WireUnits)/traced.nodeCycles())
	if ticks := s.kinds[spCoreTick].n; ticks > 0 {
		res.set("sampling.calls_per_tick", float64(s.kinds[spSample].n)/float64(ticks))
	}
	res.set("simnet.events", float64(traced.events))
	engine := s.kinds[spSimRun].sumSelf + s.kinds[spSend].sumDur
	res.set("simnet.dispatch_ns", float64(engine)/(float64(rc.sz.traceReps)*float64(traced.events)))
	res.set("experiment.overhead_ratio", minOf(viaRun)/minOf(viaBare))
	res.set("trace_overhead_frac", minOf(viaTraced)/minOf(viaBare)-1)
	res.set("experiment.heap_bytes_per_node", float64(warm.heapBytes)/float64(p.N))
	if traced.convergedAt >= 0 {
		res.set("experiment.converged_cycle", float64(traced.convergedAt))
	}
	if p.Shards > 1 {
		// How much of the second core the sharded engine turns into
		// speed: sequential wall over shards × sharded wall.
		seq := p
		seq.Shards = 1
		wallSeq, _, err := timeTrial(func() error { _, err := runHarness(seq, nil); return err })
		if err != nil {
			return err
		}
		res.set("simnet.shard_efficiency", wallSeq.Seconds()/(float64(p.Shards)*minOf(viaBare)))
	}
	return runDirect(rc)
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}
