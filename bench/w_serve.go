package main

import (
	"errors"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/id"
	"repro/internal/load"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// The two traffic mixes of the serve workload; a run alternates them cycle
// by cycle over one cluster and one key space.
var serveMixes = [2]struct {
	name     string
	getRatio float64
	zipfS    float64
}{
	{"get95", 0.95, 1.1}, // read-heavy, skewed popularity
	{"put50", 0.5, 0},    // write-heavy, uniform
}

// serveWorld is a bootstrapped overlay promoted into a DHT, preloaded,
// with one load generator per mix.
type serveWorld struct {
	cluster *dht.Cluster
	gens    [2]*load.Generator
	rng     *rand.Rand    // churn victim choice
	down    [][]peer.Addr // waves removed and not yet rejoined, oldest first
}

// buildServe is the workload's set-up, which is the paper's whole product:
// run the bootstrap protocol on simnet until every leaf set and prefix
// table is perfect, hand the structures to pastry and the DHT, preload.
func buildServe(rc *runCtx, seed int64, sc *scope) (*serveWorld, error) {
	defer sc.open(spSetup)()
	n, cfg := rc.sz.serveN, core.DefaultConfig()
	net := simnet.New(simnet.Config{Seed: seed})
	ids := id.Unique(n, seed+1)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, seed+2)
	boot := make([]*core.Node, n)
	members := make([]truth.Member, n)
	for i, d := range descs {
		// Traced, the bootstrap runs under the same decorators as the
		// simulated workloads, so set-up time lands on the right layers.
		var dec *tracedProto
		var svc sampling.Service = oracle
		if sc != nil {
			dec = newTracedProto(sc.buf.t, nil, spCoreInit, spCoreTick, spCoreHandle)
			svc = &tracedSampler{inner: oracle, d: dec}
		}
		done := sc.open(spCoreNew)
		nd, err := core.NewNode(d, cfg, svc)
		done()
		if err != nil {
			return nil, err
		}
		boot[i] = nd
		members[i] = truth.Member{Self: d.ID, Leaf: nd.Leaf(), Table: nd.Table()}
		var p proto.Protocol = nd
		if dec != nil {
			dec.inner = nd
			p = dec
		}
		if err := net.Attach(d.Addr, core.ProtoID, p, cfg.Delta, int64(i)%cfg.Delta); err != nil {
			return nil, err
		}
	}
	done := sc.open(spTruthNew)
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	done()
	if err != nil {
		return nil, err
	}
	// Convergence takes about log N cycles; checking costs a full
	// measurement, so start looking only when it is plausible.
	const firstCheck, maxCycles = 10, 30
	converged := false
	for cycle := 1; cycle <= maxCycles && !converged; cycle++ {
		done := sc.openEngine(spSimRun)
		net.Run(int64(cycle) * cfg.Delta)
		done()
		if cycle >= firstCheck {
			done := sc.open(spTruthMeasureAll)
			agg := tr.MeasureAll(members, 1)
			done()
			converged = agg.LeafMissing == 0 && agg.PrefixMissing == 0
		}
	}
	if !converged {
		return nil, errors.New("serve: bootstrap did not converge in 30 cycles")
	}

	w := &serveWorld{rng: rand.New(rand.NewSource(seed + 4))}
	routers := make([]*pastry.Router, n)
	done = sc.open(spPastryFrom)
	for i, b := range boot {
		routers[i] = pastry.FromBootstrap(b)
	}
	done()
	nodes := make([]*dht.Node, n)
	done = sc.open(spDHTNew)
	for i, r := range routers {
		nodes[i] = dht.NewNode(r)
	}
	w.cluster = dht.NewCluster(nodes, 3)
	done()
	for i, mix := range serveMixes {
		w.gens[i] = load.New(w.cluster, load.Config{
			Workers: benchProcs, KeySpace: rc.sz.serveKeys, GetRatio: mix.getRatio,
			ZipfS: mix.zipfS, ValueSize: 64, Seed: seed + 3, // one seed: one key space
		})
	}
	done = sc.open(spLoadPreload)
	full := w.gens[0].Preload()
	done()
	if full < rc.sz.serveKeys {
		return nil, errors.New("serve: preload left keys under-replicated on a perfect overlay")
	}
	return w, nil
}

// churn removes 1% of the live nodes, one at a time so each departure
// repairs before the next, and rejoins the wave removed two steps ago, so
// the population holds steady near 98% however long the run is.
func (w *serveWorld) churn(sc *scope) {
	const rejoinAfter = 2
	if len(w.down) >= rejoinAfter {
		for _, a := range w.down[0] {
			done := sc.open(spDHTJoin)
			w.cluster.Join(a)
			done()
		}
		w.down = w.down[1:]
	}
	live := w.cluster.LiveAddrs(nil)
	k := max(1, len(live)/100)
	wave := make([]peer.Addr, 0, k)
	for _, i := range w.rng.Perm(len(live))[:k] {
		done := sc.open(spDHTRemove)
		w.cluster.Remove(live[i])
		done()
		wave = append(wave, live[i])
	}
	w.down = append(w.down, wave)
}

// serveMeasure is what the timed region of serve produced.
type serveMeasure struct {
	rates  [2][]float64 // ops per second of churn step + load cycle, per mix
	totals [2]load.Stats
	cpu    time.Duration
	cycleS float64 // seconds inside RunCycle
}

func measureServe(rc *runCtx, w *serveWorld, sc *scope, seconds float64) *serveMeasure {
	m := &serveMeasure{}
	runtime.GC()
	cpu0 := cpuTime()
	for spent := time.Duration(0); spent.Seconds() < seconds; {
		for i, g := range w.gens {
			t0 := time.Now()
			w.churn(sc)
			t1 := time.Now()
			done := sc.open(spLoadCycle)
			st := g.RunCycle(rc.sz.serveOps)
			done()
			wall := time.Since(t0)
			m.cycleS += time.Since(t1).Seconds()
			m.rates[i] = append(m.rates[i], float64(st.Ops)/wall.Seconds())
			spent += wall
		}
	}
	m.cpu = cpuTime() - cpu0
	for i, g := range w.gens {
		m.totals[i] = g.Totals()
	}
	return m
}

func (m *serveMeasure) ops() (ops, ok uint64) {
	for _, t := range m.totals {
		ops += t.Ops
		ok += t.OK
	}
	return ops, ok
}

// check applies serve's gate and failure accounting.
func (m *serveMeasure) check(res *result) {
	ops, ok := m.ops()
	res.Attempted += int64(ops)
	res.Failed += int64(ops - ok)
	if float64(ok) < 0.99*float64(ops) {
		res.fail("serve success rate %.4f under churn, want >= 0.99", float64(ok)/float64(ops))
	}
}

func runServe(rc *runCtx) error {
	if rc.tr != nil {
		return traceServe(rc)
	}
	res := rc.res
	var setups []float64
	var w *serveWorld
	for i := 0; i < rc.sz.setupReps; i++ {
		wall, _, err := timeTrial(func() (err error) {
			w, err = buildServe(rc, rc.trialSeed(0), nil)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, wall.Seconds())
	}
	res.set("setup_s", setups...)

	m := measureServe(rc, w, nil, rc.seconds)
	m.check(res)
	// An equal number of operations of each mix: the combined rate is the
	// harmonic mean of the two.
	g, p := median(m.rates[0]), median(m.rates[1])
	res.set("work_per_s", 2/(1/g+1/p))
	ops, _ := m.ops()
	res.set("cpu_us_per_work", float64(m.cpu.Microseconds())/float64(ops))
	res.set("peak_rss_mb", float64(peakRSSBytes())/1e6)
	return nil
}

// latMean estimates the mean of a log-bucketed latency histogram from its
// bucket midpoints.
func latMean(h *load.LatHist) float64 {
	var sum, n float64
	for b, c := range h.Counts {
		if b > 0 {
			sum += float64(c) * 1.5 * float64(uint64(1)<<uint(b-1))
		}
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// traceServe measures a bare half and a spanned half. Spans sit around
// whole load cycles and churn steps, never single operations, so the
// traced half runs at the untraced speed.
func traceServe(rc *runCtx) error {
	res := rc.res
	bare, err := buildServe(rc, rc.trialSeed(0), nil)
	if err != nil {
		return err
	}
	mb := measureServe(rc, bare, nil, rc.seconds/2)
	mb.check(res)

	sc := rc.tr.newScope()
	closeTrial := sc.open(spTrial)
	t0 := time.Now()
	w, err := buildServe(rc, rc.trialSeed(0), sc)
	if err != nil {
		return err
	}
	m := measureServe(rc, w, sc, rc.seconds/2)
	closeTrial()
	wall := time.Since(t0)
	m.check(res)

	s := rc.tr.summarize()
	traceCommon(res, s, float64(wall.Nanoseconds()))
	rate := func(m *serveMeasure) float64 { return 2 / (1/median(m.rates[0]) + 1/median(m.rates[1])) }
	res.set("trace_overhead_frac", rate(mb)/rate(m)-1)
	for i, mix := range serveMixes {
		res.set("load.ops_per_s."+mix.name, m.rates[i]...)
	}
	var all load.Stats
	for i := range m.totals {
		all.Merge(&m.totals[i])
	}
	res.set("dht.hops_mean", all.Hops.Mean())
	res.set("dht.degraded_frac", float64(all.Degraded)/float64(max(all.Puts, 1)))
	res.set("dht.notfound_frac", float64(all.NotFound)/float64(all.Ops))
	res.set("dht.noroute_frac", float64(all.NoRoute)/float64(all.Ops))
	// What a worker's loop costs per operation beyond the DHT call.
	perOp := m.cycleS * 1e9 * benchProcs / float64(all.Ops)
	res.set("load.gen_overhead_ns", perOp-latMean(&all.Lat))
	return runDirect(rc)
}
