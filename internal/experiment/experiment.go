// Package experiment is the measurement harness reproducing the paper's
// evaluation (Section 5): start N nodes — sampling layer plus bootstrap
// layer — and after each Δ measure the proportion of missing leaf-set and
// prefix-table entries across the whole network against ground truth, the
// exact metrics of Figures 3 and 4, until both are zero.
//
// That procedure is written once, in the trial driver (trial.go): the cycle
// loop, the exact or sampled measurement, the stopping rule. A substrate
// plugs in as an engine: simEngine runs the trial on the deterministic
// simnet (Run, RunTrials), hostEngine on the goroutine host runtime over
// livenet's in-memory link or transport's sockets (RunLive, RunLiveTrials,
// and LiveShard + ShardRecorder for campaigns sharded across processes).
package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/simnet"
)

// SamplerKind selects the peer sampling implementation under the bootstrap
// layer.
type SamplerKind int

const (
	// SamplerOracle uses global-knowledge uniform sampling — the
	// paper's operating assumption ("the sampling service is already
	// functional").
	SamplerOracle SamplerKind = iota + 1
	// SamplerNewscast runs a live NEWSCAST layer under the bootstrap
	// layer, as in a real deployment of the architecture.
	SamplerNewscast
)

// String implements fmt.Stringer.
func (s SamplerKind) String() string {
	switch s {
	case SamplerOracle:
		return "oracle"
	case SamplerNewscast:
		return "newscast"
	default:
		return "unknown"
	}
}

// ParseSampler converts a CLI flag value into a SamplerKind.
func ParseSampler(s string) (SamplerKind, error) {
	switch s {
	case "oracle":
		return SamplerOracle, nil
	case "newscast":
		return SamplerNewscast, nil
	default:
		return 0, fmt.Errorf("unknown sampler %q (want oracle or newscast)", s)
	}
}

// Churn describes a node-replacement workload: each cycle in
// [StartCycle, StopCycle) a fraction Rate of the network is killed and
// replaced by fresh nodes with new IDs, keeping N constant.
type Churn struct {
	Rate       float64
	StartCycle int
	StopCycle  int
}

// Active reports whether churn applies at the given cycle.
func (c Churn) Active(cycle int) bool {
	return c.Rate > 0 && cycle >= c.StartCycle && cycle < c.StopCycle
}

// Params configures one experiment run.
type Params struct {
	// N is the network size.
	N int
	// Seed drives every random choice in the run.
	Seed int64
	// Config holds the bootstrap protocol parameters.
	Config core.Config
	// Drop is the uniform message-drop probability (0.2 in Figure 4).
	Drop float64
	// MaxCycles bounds the run; the run ends earlier on perfection.
	MaxCycles int
	// Sampler selects the sampling layer; zero value means oracle.
	Sampler SamplerKind
	// WarmupCycles runs the NEWSCAST layer alone before the bootstrap
	// layer starts (ignored for the oracle sampler).
	WarmupCycles int
	// Churn optionally replaces nodes during the run.
	Churn Churn
	// Join optionally injects a massive simultaneous join: Count fresh
	// nodes start the protocol at the beginning of cycle Cycle. This is
	// the paper's motivating "massive joins" scenario.
	Join Join
	// IDs optionally fixes the initial membership identifiers (length
	// must equal N). Used to study non-uniform ID distributions; the
	// default is N uniform random IDs.
	IDs []id.ID
	// MeasureWorkers is the number of goroutines the per-cycle
	// ground-truth measurement is sharded across (0 = GOMAXPROCS). The
	// measurement aggregates integer counts, so every value produces
	// bit-identical results; the protocol trace is untouched either way.
	MeasureWorkers int
	// MeasureSample, when positive and smaller than the live population,
	// measures a uniform random node sample of that size per cycle
	// instead of the full network, reporting ratio estimates with
	// confidence intervals (truth.MeasureSampleConf) — the paper itself
	// plots means over node samples, and at paper scale full measurement
	// costs seconds per cycle. Zero (the default) measures every node.
	// Sampling touches only the measurement plane — the protocol trace
	// is bit-identical either way. A cycle whose sample shows zero
	// missing entries only counts as converged once one exact MeasureAll
	// over the full population confirms it (see trial.measure). When the
	// confirmation refutes the sample, the exact measurement replaces it
	// as that cycle's reported Point (recognisable by SampleSize == 0);
	// confirmed cycles keep the sampled estimate.
	MeasureSample int
	// MeasureConfidence is the two-sided confidence level of the sampled
	// estimator's intervals; 0 selects 0.95. Ignored for full
	// measurement.
	MeasureConfidence float64
	// Shards is the simulation engine's parallel shard count
	// (simnet.Config.Shards): 0 or 1 dispatches sequentially, higher values
	// split each instant's dispatch across that many workers. The engine
	// runs the same events in the same order either way. With the NEWSCAST
	// sampler every value therefore yields the same trace. With the
	// oracle sampler every Shards > 1 value yields one trace, distinct
	// from the Shards <= 1 one: under parallel dispatch each node draws
	// from its own oracle Stream (keyed by spawn order, as livenet does)
	// instead of the single shared oracle stream, whose draw order depends
	// on dispatch order.
	Shards int
	// KeepRunningAfterPerfect continues until MaxCycles even after
	// perfection, for steady-state studies.
	KeepRunningAfterPerfect bool
	// MemStats records the live heap (after a forced GC) into
	// Result.HeapBytes at the end of the run, while the network is still
	// reachable — the CLI's -memstats accounting. It runs once, after the
	// last cycle, so the protocol trace is untouched.
	MemStats bool
}

// Join describes a massive simultaneous join event.
type Join struct {
	Cycle int
	Count int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := validateShared("", p.N, p.MaxCycles, p.Drop, p.WarmupCycles, p.measureSpec()); err != nil {
		return err
	}
	if p.Churn.Rate < 0 || p.Churn.Rate > 1 {
		return fmt.Errorf("experiment: churn rate = %v out of [0, 1]", p.Churn.Rate)
	}
	if p.Join.Count < 0 || p.Join.Cycle < 0 {
		return fmt.Errorf("experiment: join = %+v must not be negative", p.Join)
	}
	if len(p.IDs) != 0 && len(p.IDs) != p.N {
		return fmt.Errorf("experiment: %d explicit IDs for N = %d", len(p.IDs), p.N)
	}
	if p.Shards < 0 {
		return fmt.Errorf("experiment: Shards = %d must not be negative", p.Shards)
	}
	return p.Config.Validate()
}

func (p Params) measureSpec() measureSpec {
	return measureSpec{p.MeasureSample, p.MeasureConfidence, p.MeasureWorkers}
}

// validateShared checks what Params and LiveParams have in common; kind
// ("" or "live ") names the struct in the message.
func validateShared(kind string, n, cycles int, drop float64, warmup int, m measureSpec) error {
	switch {
	case n < 2:
		return fmt.Errorf("experiment: %sN must be at least 2", kind)
	case cycles < 1:
		return fmt.Errorf("experiment: %scycle budget must be positive", kind)
	case drop < 0 || drop >= 1:
		return fmt.Errorf("experiment: %sDrop = %v out of [0, 1)", kind, drop)
	case warmup < 0:
		return fmt.Errorf("experiment: %sWarmupCycles = %d must not be negative", kind, warmup)
	case m.workers < 0:
		return fmt.Errorf("experiment: %sMeasureWorkers = %d must not be negative", kind, m.workers)
	case m.sample < 0:
		return fmt.Errorf("experiment: %sMeasureSample = %d must not be negative", kind, m.sample)
	case m.confidence < 0 || m.confidence >= 1:
		return fmt.Errorf("experiment: %sMeasureConfidence = %v out of [0, 1)", kind, m.confidence)
	}
	return nil
}

// Point is one per-cycle measurement across the whole network.
type Point struct {
	// Cycle is the cycle index, starting at 0 (the paper's convention:
	// the first Δ-interval after the staggered start).
	Cycle int
	// LeafMissing is the proportion of missing leaf-set entries.
	LeafMissing float64
	// PrefixMissing is the proportion of missing prefix-table entries.
	PrefixMissing float64
	// LeafPerfect and PrefixPerfect count nodes whose structure is
	// already perfect.
	LeafPerfect, PrefixPerfect int
	// LeafDead and PrefixDead count structure entries pointing at
	// departed nodes (nonzero only under churn).
	LeafDead, PrefixDead int
	// Alive is the number of live nodes at measurement time.
	Alive int
	// Sent and Dropped are cumulative network counters.
	Sent, Dropped int64
	// WireUnits is the cumulative traffic volume in descriptor units;
	// the paper argues the prefix part keeps messages well under the
	// full-table bound, which this exposes.
	WireUnits int64
	// LeafCI and PrefixCI are the half-widths of the sampled estimator's
	// confidence intervals around LeafMissing/PrefixMissing; zero for a
	// full (exact) measurement.
	LeafCI, PrefixCI float64
	// SampleSize is the number of nodes measured this cycle under
	// sampled measurement (the perfect/dead node counts are then scaled
	// projections); zero means every live node was measured exactly.
	SampleSize int
}

// Result is the outcome of a run.
type Result struct {
	Params Params
	// Points holds one entry per completed cycle, in order.
	Points []Point
	// ConvergedAt is the first cycle at which both structures were
	// perfect at every live node, or -1.
	ConvergedAt int
	// Stats is the final network traffic snapshot.
	Stats simnet.Stats
	// HeapBytes is the post-GC live heap captured at the end of the run
	// with the network still live; 0 unless Params.MemStats was set.
	HeapBytes uint64
}

// Run executes the experiment on the deterministic simulator and returns
// the per-cycle series.
func Run(p Params) (*Result, error) {
	if p.Sampler == 0 {
		p.Sampler = SamplerOracle
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, eng, err := newSimTrial(p)
	if err != nil {
		return nil, err
	}
	if err := t.run(p.MaxCycles); err != nil {
		return nil, err
	}
	return &Result{
		Params:      p,
		Points:      t.rec.points,
		ConvergedAt: t.rec.convergedAt,
		Stats:       eng.net.Stats(),
		HeapBytes:   captureHeap(p.MemStats),
	}, nil
}

// WriteCSV emits the per-cycle series with a header, one row per cycle.
// Runs with sampled measurement grow ±ci and sample-size columns; full
// measurement keeps the historical column set byte-identically (pinned by
// the golden CSV test).
func (res *Result) WriteCSV(w io.Writer) error {
	sampled := res.Params.MeasureSample > 0
	header := "cycle,leaf_missing,prefix_missing,leaf_perfect_nodes,prefix_perfect_nodes,leaf_dead,prefix_dead,alive,sent,dropped,wire_units"
	if sampled {
		header += ",leaf_ci,prefix_ci,sample_size"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, pt := range res.Points {
		row := fmt.Sprintf("%d,%.6e,%.6e,%d,%d,%d,%d,%d,%d,%d,%d", pt.Cycle, pt.LeafMissing, pt.PrefixMissing,
			pt.LeafPerfect, pt.PrefixPerfect, pt.LeafDead, pt.PrefixDead, pt.Alive, pt.Sent, pt.Dropped, pt.WireUnits)
		if sampled {
			row += fmt.Sprintf(",%.6e,%.6e,%d", pt.LeafCI, pt.PrefixCI, pt.SampleSize)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// Final returns the last measured point (zero Point for an empty series).
func (res *Result) Final() Point { return lastPoint(res.Points) }

func lastPoint(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	return pts[len(pts)-1]
}
