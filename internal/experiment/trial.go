package experiment

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/id"
	"repro/internal/memstats"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/truth"
)

// engine is what a substrate supplies to the trial driver. Every method is
// called O(1) times per cycle, never per node or per message. The two real
// implementations are simEngine (virtual time) and hostEngine (wall clock,
// over either link of internal/host); tests drive the stopping and
// confirmation rules through a fake with no sleeping.
type engine interface {
	// applyFaults executes the faults due at the start of cycle and
	// returns the membership delta: the IDs that joined and that left.
	applyFaults(cycle int) (added, removed []id.ID, err error)
	// lastFault is the latest cycle with a scheduled fault the run must
	// wait out (-1 for none): convergence is not declared before it.
	lastFault() int
	// advance lets the network run for one gossip period Δ.
	advance(cycle int)
	// freeze stops the world so protocol state can be read consistently;
	// thaw resumes it.
	freeze()
	thaw()
	// appendMembers appends the live members this process can measure and
	// returns the network-wide live count with them.
	appendMembers(dst []truth.Member, cycle int) (ms []truth.Member, alive int)
	// traffic reads the cumulative network counters.
	traffic() traffic
}

// traffic is the per-cycle counter reading a Point carries. wireUnits is 0
// on the wall-clock engine, which does no descriptor-unit accounting.
type traffic struct {
	sent, dropped, wireUnits int64
}

// member is one node of a trial, on every engine.
type member struct {
	desc peer.Descriptor
	// boot is the node's bootstrap layer; nil for a node owned by another
	// process of a sharded campaign, which that process measures.
	boot *core.Node
	nc   *newscast.Protocol // non-nil under SamplerNewscast
	// host is the node's goroutine host on the wall-clock engine; nil on
	// simnet and for nodes owned by another process.
	host  *host.Host
	alive bool
	// joinCycle is the cycle the node was spawned in (0 for the initial
	// population). Sampled measurement stratifies on it: nodes younger
	// than freshAgeCycles are the "fresh" stratum (truth.Member.Fresh).
	joinCycle int
}

// freshAgeCycles is the stratification boundary for sampled measurement: a
// node that joined fewer than this many cycles before the measurement is
// "fresh" — its structures are still mostly empty, so it sits in the other
// mode of the bimodal missing-count mixture churn creates.
const freshAgeCycles = 2

// population is the part of a trial both engines build and their faults
// mutate: the member table, the sampling oracle that mirrors it, and the
// protocol configuration carrying the trial's descriptor arena.
type population struct {
	// cfg.Arena backs every node's leaf-set and prefix-table blocks for
	// the lifetime of the trial: the harness owns it, core borrows. What a
	// fault returns to it is the engine's call — a simnet churn victim
	// never comes back, so its blocks are released on the spot; a killed
	// host keeps its protocol state for Respawn (the crash-recovery
	// model), so its blocks stay owned for the whole trial and the arena's
	// win there is batching: ~3 block allocations per node become one
	// chunk allocation per 256 blocks.
	cfg     core.Config
	oracle  *sampling.Oracle
	members []*member
}

func (p *population) ids() []id.ID {
	ids := make([]id.ID, len(p.members))
	for i, m := range p.members {
		ids[i] = m.desc.ID
	}
	return ids
}

func (p *population) appendMembers(dst []truth.Member, cycle int) ([]truth.Member, int) {
	alive := 0
	for _, m := range p.members {
		if !m.alive {
			continue
		}
		alive++
		if m.boot == nil {
			continue
		}
		dst = append(dst, truth.Member{
			Self: m.desc.ID, Leaf: m.boot.Leaf(), Table: m.boot.Table(),
			Fresh: cycle-m.joinCycle < freshAgeCycles,
		})
	}
	return dst, alive
}

// recorder holds a trial's per-cycle series and the stopping rule — the
// only implementation of it in the tree. A single-process trial records
// into its own; the driver of a sharded campaign (ShardRecorder) feeds one
// the summed partial measurements of its workers.
type recorder struct {
	lastFault   int
	keepRunning bool
	points      []Point
	convergedAt int
}

func newRecorder(lastFault int, keepRunning bool) recorder {
	return recorder{lastFault: lastFault, keepRunning: keepRunning, convergedAt: -1}
}

// settled reports whether every scheduled fault has been applied by the
// end of cycle. Faults apply at the start of their cycle and measurement
// runs at its end, so a perfect measurement at the last fault's own cycle
// already reflects the fully applied plan.
func (r *recorder) settled(cycle int) bool { return cycle >= r.lastFault }

// record appends the cycle's point and reports whether the run stops.
// perfect means: exactly zero missing entries, measured on a settled cycle.
func (r *recorder) record(pt Point, perfect bool) (stop bool) {
	r.points = append(r.points, pt)
	if !perfect {
		return false
	}
	if r.convergedAt < 0 {
		r.convergedAt = pt.Cycle
	}
	return !r.keepRunning
}

func exactlyPerfect(agg truth.Aggregate) bool {
	return agg.LeafMissing == 0 && agg.PrefixMissing == 0
}

// trial is the evaluation procedure of the paper's Section 5, written once
// for every engine: per cycle, apply faults → advance one Δ → freeze →
// measure against ground truth → thaw → record → stopping rule.
type trial struct {
	eng engine
	// tr is the ground-truth oracle: built once, then patched with each
	// cycle's membership delta — never rebuilt (the measurement plane's
	// dominant cost at paper scale).
	tr *truth.Truth
	// measBuf is reused across cycles.
	measBuf []truth.Member
	// measRNG draws the measurement samples; a stream of its own, so
	// enabling sampling never perturbs the protocol trace.
	measRNG *rand.Rand
	measureSpec
	rec recorder
}

// measureSpec is the measurement plane's configuration, read from Params
// (MeasureSample, MeasureConfidence, MeasureWorkers) and LiveParams
// (MeasureSample, MeasureWorkers; its intervals use the default 0.95).
type measureSpec struct {
	sample     int
	confidence float64
	workers    int
}

func newTrial(eng engine, ids []id.ID, cfg core.Config, seed int64, spec measureSpec, keepRunning bool) (*trial, error) {
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		return nil, err
	}
	return &trial{
		eng: eng, tr: tr,
		measRNG:     rand.New(rand.NewSource(seed + 0x5ca1ab1e)),
		measureSpec: spec,
		rec:         newRecorder(eng.lastFault(), keepRunning),
	}, nil
}

// run steps the trial until the stopping rule fires or cycles are used up.
func (t *trial) run(cycles int) error {
	for cycle := 0; cycle < cycles; cycle++ {
		stop, err := t.step(cycle)
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// observe runs cycle up to the measurement and returns with the world
// frozen and measBuf holding the measurable members; the caller thaws.
func (t *trial) observe(cycle int) (alive int, tf traffic, err error) {
	added, removed, err := t.eng.applyFaults(cycle)
	if err != nil {
		return 0, traffic{}, err
	}
	// Membership only changes through applyFaults, on this goroutine, so
	// the truth is patched before the world stops: the frozen window then
	// covers only the state inspection, not the truth derivation.
	if err := t.tr.Update(added, removed); err != nil {
		return 0, traffic{}, err
	}
	t.eng.advance(cycle)
	t.eng.freeze()
	t.measBuf, alive = t.eng.appendMembers(t.measBuf[:0], cycle)
	return alive, t.eng.traffic(), nil
}

// step runs one whole cycle of a single-process trial.
func (t *trial) step(cycle int) (stop bool, err error) {
	alive, tf, err := t.observe(cycle)
	if err != nil {
		return false, err
	}
	pt, perfect := t.measure(cycle, alive, tf)
	t.eng.thaw()
	return t.rec.record(pt, perfect), nil
}

// partial runs one cycle of one shard of a multi-process campaign: the
// exact measurement covers this process's members only — integer sums, so
// the driver adds the shards' partials to recover exactly the whole-network
// measurement and applies the stopping rule to the sum.
func (t *trial) partial(cycle int) (Partial, error) {
	alive, tf, err := t.observe(cycle)
	if err != nil {
		return Partial{}, err
	}
	agg := t.tr.MeasureAll(t.measBuf, t.workers)
	t.eng.thaw()
	return Partial{Agg: agg, LocalAlive: len(t.measBuf), Alive: alive, Sent: tf.sent, Dropped: tf.dropped}, nil
}

// measure computes the network-wide missing proportions against ground
// truth while the world is frozen, sharded across workers goroutines, and
// decides whether the cycle was perfect. With sample > 0 it measures a
// uniform node sample and reports ratio estimates (Params.MeasureSample);
// truth falls back to the exact measurement otherwise.
func (t *trial) measure(cycle, alive int, tf traffic) (Point, bool) {
	settled := t.rec.settled(cycle)
	sa := t.tr.MeasureSampleConf(t.measBuf, t.sample, t.confidence, t.measRNG, t.workers)
	pt := pointFromSampleAggregate(cycle, sa, alive, tf)
	perfect := settled && pt.LeafMissing == 0 && pt.PrefixMissing == 0
	if perfect && !sa.Exact {
		// An all-perfect sample is only evidence, not proof: a small
		// sample can miss every imperfect node. Confirm with one exact
		// measurement, while the world is still frozen, before the run is
		// allowed to stop (or stamp ConvergedAt). Exact integer counts, so
		// "confirmed" means genuinely zero missing entries. When the exact
		// measurement disagrees it supersedes the sample as the reported
		// point (SampleSize == 0 marks it exact): the full measurement is
		// already paid for, and an optimistic estimate the run itself
		// refuted would misreport the convergence tail.
		agg := t.tr.MeasureAll(t.measBuf, t.workers)
		if perfect = exactlyPerfect(agg); !perfect {
			pt = pointFromAggregate(cycle, agg, alive, tf)
		}
	}
	return pt, perfect
}

// captureHeap takes the end-of-run live-heap sample (Params.MemStats) while
// the network is still reachable; a campaign's HeapPeak is the largest of
// these samples.
func captureHeap(on bool) uint64 {
	if !on {
		return 0
	}
	return memstats.HeapAlloc()
}

// pointFromAggregate converts MeasureAll's integer sums into the per-cycle
// Point every engine reports.
func pointFromAggregate(cycle int, agg truth.Aggregate, alive int, tf traffic) Point {
	pt := Point{
		Cycle:         cycle,
		LeafPerfect:   agg.LeafPerfect,
		PrefixPerfect: agg.PrefixPerfect,
		LeafDead:      agg.LeafDead,
		PrefixDead:    agg.PrefixDead,
		Alive:         alive,
		Sent:          tf.sent,
		Dropped:       tf.dropped,
		WireUnits:     tf.wireUnits,
	}
	if agg.LeafTotal > 0 {
		pt.LeafMissing = float64(agg.LeafMissing) / float64(agg.LeafTotal)
	}
	if agg.PrefixTotal > 0 {
		pt.PrefixMissing = float64(agg.PrefixMissing) / float64(agg.PrefixTotal)
	}
	return pt
}

// pointFromSampleAggregate converts a sampled measurement into a Point:
// estimated missing proportions with their interval half-widths, and the
// per-node count metrics scaled from the sample to the live population.
func pointFromSampleAggregate(cycle int, sa truth.SampleAggregate, alive int, tf traffic) Point {
	pt := pointFromAggregate(cycle, sa.Sums, alive, tf)
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
