package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// simOutcome is what one simulated trial produced, from either
// experiment.Run or the bench-side harness below. The two must agree
// bit for bit on the same Params: the digest covers every per-cycle point
// and the final traffic counters.
type simOutcome struct {
	points      []experiment.Point
	stats       simnet.Stats
	convergedAt int
	heapBytes   uint64
	setup, run  time.Duration // harness only: wiring, then the cycle loop
	events      int64         // harness only: events the engine processed
	// sends and entries count bootstrap messages and the descriptors in
	// them (traced harness only).
	sends, entries int64
}

func (o *simOutcome) digest() string {
	h := sha256.New()
	for _, pt := range o.points {
		fmt.Fprintf(h, "%+v\n", pt)
	}
	fmt.Fprintf(h, "%+v\n", o.stats)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// nodeCycles is the simulated work of the trial: live nodes summed over
// the measured cycles.
func (o *simOutcome) nodeCycles() float64 {
	total := 0
	for _, pt := range o.points {
		total += pt.Alive
	}
	return float64(total)
}

func runExperiment(p experiment.Params) (*simOutcome, error) {
	res, err := experiment.Run(p)
	if err != nil {
		return nil, err
	}
	return &simOutcome{points: res.Points, stats: res.Stats, convergedAt: res.ConvergedAt, heapBytes: res.HeapBytes}, nil
}

// simMember is one node of the harness network.
type simMember struct {
	desc      peer.Descriptor
	boot      *core.Node
	alive     bool
	joinCycle int
}

// simHarness re-creates experiment.Run's trial from the packages' public
// functions, drawing from the same seeded streams in the same order, so
// that timing decorators and spans can sit at every layer boundary while
// the simulated outcome stays identical to the untraced experiment.Run.
// It covers what the workloads use: both samplers, drop, shards, churn,
// exact and sampled measurement.
type simHarness struct {
	p          experiment.Params
	tr         *tracer // nil: no decorators, no spans
	sc         *scope
	net        *simnet.Network
	rng        *rand.Rand
	measRNG    *rand.Rand
	idGen      *id.Generator
	oracle     *sampling.Oracle
	samplerSeq int64
	members    []*simMember
	truth      *truth.Truth
	cycle      int
	measBuf    []truth.Member
	events     int64 // events the engine processed, warm-up included
	// coreDecs are the bootstrap layer's decorators (traced runs only),
	// kept for their send counters.
	coreDecs []*tracedProto
}

// freshAgeCycles mirrors experiment's stratification boundary for sampled
// measurement.
const freshAgeCycles = 2

// setup wires the network up to the first bootstrap cycle: nodes, oracle,
// sampler warm-up and the ground-truth oracle.
func (h *simHarness) setup() error {
	p := h.p
	defer h.sc.open(spSetup)()
	h.net = simnet.New(simnet.Config{Seed: p.Seed, Drop: p.Drop, Shards: p.Shards})
	h.rng = rand.New(rand.NewSource(p.Seed + 0x9e3779b9))
	h.measRNG = rand.New(rand.NewSource(p.Seed + 0x5ca1ab1e))
	h.idGen = id.NewGenerator(p.Seed + 0x7f4a7c15)
	h.p.Config.Arena = peer.NewDescriptorArena()

	descs := make([]peer.Descriptor, p.N)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: h.idGen.Next(), Addr: h.net.AddNode()}
	}
	h.oracle = sampling.NewOracle(descs, p.Seed+0x1234)

	warmup := int64(0)
	if p.Sampler == experiment.SamplerNewscast {
		warmup = int64(p.WarmupCycles) * p.Config.Delta
	}
	for _, d := range descs {
		if err := h.spawn(d, warmup); err != nil {
			return err
		}
	}
	if warmup > 0 {
		done := h.sc.openEngine(spSimRun)
		h.events += int64(h.net.Run(warmup))
		done()
	}
	ids := make([]id.ID, len(h.members))
	for i, m := range h.members {
		ids[i] = m.desc.ID
	}
	done := h.sc.open(spTruthNew)
	tr, err := truth.New(ids, p.Config.B, p.Config.K, p.Config.C)
	done()
	h.truth = tr
	return err
}

func (h *simHarness) spawn(d peer.Descriptor, bootstrapStart int64) error {
	p := h.p
	delta := p.Config.Delta
	m := &simMember{desc: d, alive: true, joinCycle: h.cycle}
	var svc sampler
	if p.Sampler == experiment.SamplerNewscast {
		nc := newscast.New(d, h.oracle.Sample(5), newscast.DefaultViewSize)
		var ncProto proto.Protocol = nc
		if h.tr != nil {
			ncProto = newTracedProto(h.tr, nc, spNewscastInit, spNewscastTick, spNewscastHandle)
		}
		if err := h.net.Attach(d.Addr, newscast.ProtoID, ncProto, delta, h.rng.Int63n(delta)); err != nil {
			return err
		}
		h.samplerSeq++
		svc = newscast.NewSampler(nc, p.Seed+0x51*h.samplerSeq)
	} else if p.Shards > 1 {
		h.samplerSeq++
		svc = h.oracle.Stream(h.samplerSeq)
	} else {
		svc = h.oracle
	}

	var dec *tracedProto
	var sampler sampling.Service = svc
	if h.tr != nil {
		dec = newTracedProto(h.tr, nil, spCoreInit, spCoreTick, spCoreHandle)
		sampler = &tracedSampler{inner: svc, d: dec}
	}
	done := h.sc.open(spCoreNew)
	boot, err := core.NewNode(d, h.p.Config, sampler)
	done()
	if err != nil {
		return err
	}
	m.boot = boot
	var bootProto proto.Protocol = boot
	if dec != nil {
		dec.inner = boot
		bootProto = dec
		h.coreDecs = append(h.coreDecs, dec)
	}
	offset := bootstrapStart + h.rng.Int63n(delta)
	if err := h.net.Attach(d.Addr, core.ProtoID, bootProto, delta, offset); err != nil {
		return err
	}
	h.members = append(h.members, m)
	return nil
}

func (h *simHarness) aliveMembers() []*simMember {
	var out []*simMember
	for _, m := range h.members {
		if m.alive {
			out = append(out, m)
		}
	}
	return out
}

func (h *simHarness) applyChurn() error {
	n := int(h.p.Churn.Rate * float64(h.p.N))
	if n == 0 && h.p.Churn.Rate > 0 {
		n = 1
	}
	alive := h.aliveMembers()
	n = min(n, len(alive))
	perm := h.rng.Perm(len(alive))
	removed := make([]id.ID, n)
	for i := 0; i < n; i++ {
		victim := alive[perm[i]]
		victim.alive = false
		done := h.sc.open(spSimKill)
		h.net.Kill(victim.desc.Addr)
		victim.boot.Release()
		done()
		done = h.sc.open(spOracleUpdate)
		h.oracle.Remove(victim.desc.ID)
		done()
		removed[i] = victim.desc.ID
	}
	added := make([]id.ID, n)
	for i := 0; i < n; i++ {
		d := peer.Descriptor{ID: h.idGen.Next(), Addr: h.net.AddNode()}
		done := h.sc.open(spOracleUpdate)
		h.oracle.Add(d)
		done()
		if err := h.spawn(d, 0); err != nil {
			return err
		}
		added[i] = d.ID
	}
	defer h.sc.open(spTruthUpdate)()
	return h.truth.Update(added, removed)
}

func (h *simHarness) measure(cycle int) experiment.Point {
	alive := 0
	ms := h.measBuf[:0]
	for _, m := range h.members {
		if !m.alive {
			continue
		}
		alive++
		ms = append(ms, truth.Member{
			Self: m.desc.ID, Leaf: m.boot.Leaf(), Table: m.boot.Table(),
			Fresh: cycle-m.joinCycle < freshAgeCycles,
		})
	}
	h.measBuf = ms
	st := h.net.Stats()
	if h.p.MeasureSample > 0 {
		done := h.sc.open(spTruthMeasureSample)
		sa := h.truth.MeasureSampleConf(ms, h.p.MeasureSample, h.p.MeasureConfidence, h.measRNG, h.p.MeasureWorkers)
		done()
		return pointFromSample(cycle, sa, alive, st)
	}
	done := h.sc.open(spTruthMeasureAll)
	agg := h.truth.MeasureAll(ms, h.p.MeasureWorkers)
	done()
	return pointFromAggregate(cycle, agg, alive, st)
}

// run is the cycle loop: churn, one Δ of simulated time, measurement.
func (h *simHarness) run() (*simOutcome, error) {
	p := h.p
	out := &simOutcome{convergedAt: -1}
	start := h.net.Now()
	for cycle := 0; cycle < p.MaxCycles; cycle++ {
		h.cycle = cycle
		if p.Churn.Active(cycle) {
			if err := h.applyChurn(); err != nil {
				return nil, err
			}
		}
		done := h.sc.openEngine(spSimRun)
		h.events += int64(h.net.Run(start + int64(cycle+1)*p.Config.Delta))
		done()
		pt := h.measure(cycle)
		perfect := pt.LeafMissing == 0 && pt.PrefixMissing == 0
		if perfect && pt.SampleSize > 0 {
			done := h.sc.open(spTruthMeasureAll)
			agg := h.truth.MeasureAll(h.measBuf, p.MeasureWorkers)
			done()
			perfect = agg.LeafMissing == 0 && agg.PrefixMissing == 0
			if !perfect {
				pt = pointFromAggregate(cycle, agg, pt.Alive, simnet.Stats{Sent: pt.Sent, Dropped: pt.Dropped, WireUnits: pt.WireUnits})
			}
		}
		out.points = append(out.points, pt)
		if perfect {
			if out.convergedAt < 0 {
				out.convergedAt = cycle
			}
			if !p.KeepRunningAfterPerfect {
				break
			}
		}
	}
	out.stats = h.net.Stats()
	out.events = h.events
	for _, d := range h.coreDecs {
		out.sends += d.sends
		out.entries += d.entries
	}
	return out, nil
}

// newSimHarness validates p the way experiment.Run does; tr may be nil.
func newSimHarness(p experiment.Params, tr *tracer) (*simHarness, error) {
	if p.Sampler == 0 {
		p.Sampler = experiment.SamplerOracle
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &simHarness{p: p, tr: tr, sc: tr.newScope()}, nil
}

// trial is one whole trial: setup, then the cycle loop.
func (h *simHarness) trial() (*simOutcome, error) {
	defer h.sc.open(spTrial)()
	t0 := time.Now()
	if err := h.setup(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	out, err := h.run()
	if err != nil {
		return nil, err
	}
	out.setup, out.run = t1.Sub(t0), time.Since(t1)
	return out, nil
}

func runHarness(p experiment.Params, tr *tracer) (*simOutcome, error) {
	h, err := newSimHarness(p, tr)
	if err != nil {
		return nil, err
	}
	return h.trial()
}

func pointFromAggregate(cycle int, agg truth.Aggregate, alive int, st simnet.Stats) experiment.Point {
	pt := experiment.Point{
		Cycle:       cycle,
		LeafPerfect: agg.LeafPerfect, PrefixPerfect: agg.PrefixPerfect,
		LeafDead: agg.LeafDead, PrefixDead: agg.PrefixDead,
		Alive: alive,
		Sent:  st.Sent, Dropped: st.Dropped, WireUnits: st.WireUnits,
	}
	if agg.LeafTotal > 0 {
		pt.LeafMissing = float64(agg.LeafMissing) / float64(agg.LeafTotal)
	}
	if agg.PrefixTotal > 0 {
		pt.PrefixMissing = float64(agg.PrefixMissing) / float64(agg.PrefixTotal)
	}
	return pt
}

func pointFromSample(cycle int, sa truth.SampleAggregate, alive int, st simnet.Stats) experiment.Point {
	pt := pointFromAggregate(cycle, sa.Sums, alive, st)
	pt.LeafMissing = sa.LeafMissing.Mean
	pt.PrefixMissing = sa.PrefixMissing.Mean
	if sa.Exact {
		return pt
	}
	pt.LeafCI, pt.PrefixCI = sa.LeafMissing.CI, sa.PrefixMissing.CI
	pt.SampleSize = sa.SampleSize
	scale := float64(sa.Population) / float64(sa.SampleSize)
	pt.LeafPerfect = int(math.Round(float64(pt.LeafPerfect) * scale))
	pt.PrefixPerfect = int(math.Round(float64(pt.PrefixPerfect) * scale))
	pt.LeafDead = int(math.Round(float64(pt.LeafDead) * scale))
	pt.PrefixDead = int(math.Round(float64(pt.PrefixDead) * scale))
	return pt
}
