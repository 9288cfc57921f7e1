package experiment

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/memstats"
)

// AggPoint is one per-cycle aggregate of a convergence metric across
// independent trials: mean, min and max of the missing proportions, plus
// the fraction of trials already converged by that cycle.
type AggPoint struct {
	Cycle  int
	Trials int
	// LeafMean/Min/Max aggregate Point.LeafMissing across trials.
	LeafMean, LeafMin, LeafMax float64
	// PrefixMean/Min/Max aggregate Point.PrefixMissing across trials.
	PrefixMean, PrefixMin, PrefixMax float64
	// ConvergedFrac is the fraction of trials whose ConvergedAt is at or
	// before this cycle.
	ConvergedFrac float64
	// LeafCIMean/PrefixCIMean average the per-trial estimator interval
	// half-widths; zero under full measurement.
	LeafCIMean, PrefixCIMean float64
}

// Campaign is the outcome of a multi-trial campaign on either engine: P is
// the shared configuration, R one trial's result.
type Campaign[P any, R outcome] struct {
	// Params is the shared configuration (a Seed field in it is ignored;
	// each trial runs with its own seed).
	Params P
	// Seeds are the per-trial seeds, in input order.
	Seeds []int64
	// Trials holds one full result per seed, index-aligned with Seeds.
	Trials []R
	// Agg is the per-cycle aggregate series. Trials that converged (and
	// stopped) before the longest trial ended are padded with their final
	// point, so a finished run keeps contributing its converged state.
	Agg []AggPoint
	// Workers is the resolved worker-pool size the trials actually ran on
	// (after the GOMAXPROCS default and the clamp to the trial count).
	Workers int
	// HeapBaseline is the post-GC live heap before the first trial; 0
	// unless MemStats was set. HeapPeak folds the trials' samples into it.
	HeapBaseline uint64
	// sampled: the campaign measured node samples, so its CSV grows the
	// estimator interval columns.
	sampled bool
}

type (
	// TrialsResult is a simnet campaign (RunTrials).
	TrialsResult = Campaign[Params, *Result]
	// LiveTrialsResult is a wall-clock campaign (RunLiveTrials).
	LiveTrialsResult = Campaign[LiveParams, *LiveResult]
)

// Seeds returns n deterministic trial seeds derived from base, suitable for
// RunTrials: base, base+7919, base+2*7919, … — the same seeds cmd/sim's
// fig3 and fig4 use for -runs repetitions, so a -trials campaign aggregates exactly the
// per-seed series a -runs campaign prints raw.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*7919
	}
	return out
}

// RunTrials runs one independent trial of p per seed, fanning the trials
// across a pool of workers goroutines (workers < 1 means GOMAXPROCS), and
// aggregates the per-cycle convergence series across trials. Each trial is
// a self-contained deterministic simulation keyed only on its seed, so the
// result — including Trials order and every aggregate — is independent of
// workers and of goroutine scheduling.
func RunTrials(p Params, seeds []int64, workers int) (*TrialsResult, error) {
	if p.Sampler == 0 {
		p.Sampler = SamplerOracle
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tr, err := newCampaign[Params, *Result](seeds, workers, p.Shards, p.MemStats)
	if err != nil {
		return nil, err
	}
	tr.Params, tr.sampled = p, p.MeasureSample > 0
	err = tr.run(func(seed int64) (*Result, error) {
		tp := p
		tp.Seed = seed
		return Run(tp)
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// newCampaign resolves the worker pool of a campaign over seeds (workers < 1
// means GOMAXPROCS) and, under memStats, reads its heap baseline.
func newCampaign[P any, R outcome](seeds []int64, workers, shards int, memStats bool) (*Campaign[P, R], error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiment: a campaign needs at least one seed")
	}
	if workers < 1 {
		// A sharded trial already runs Params.Shards engine workers, so
		// the default splits the cores between the two levels instead of
		// oversubscribing trials*shards goroutines onto GOMAXPROCS.
		// An explicit workers count is always honored as given.
		workers = max(1, runtime.GOMAXPROCS(0)/max(1, shards))
	}
	tr := &Campaign[P, R]{Seeds: seeds, Workers: min(workers, len(seeds))}
	if memStats {
		tr.HeapBaseline = memstats.HeapAlloc()
	}
	return tr, nil
}

// HeapPeak returns the campaign's live-heap high-water mark: the largest of
// the baseline and every trial's end-of-run sample, each taken while that
// trial's network was still reachable and its concurrent trials were live.
// A single end-of-campaign snapshot would instead see whatever subset of
// trials happened to be live at that instant.
func (tr *Campaign[P, R]) HeapPeak() uint64 {
	peak := tr.HeapBaseline
	for _, r := range tr.Trials {
		peak = max(peak, r.heapBytes())
	}
	return peak
}

// outcome is what campaign aggregation reads from one finished trial, on
// either engine: its per-cycle series and ConvergedAt, and its heap sample.
type outcome interface {
	series() ([]Point, int)
	heapBytes() uint64
}

func (res *Result) series() ([]Point, int)     { return res.Points, res.ConvergedAt }
func (res *LiveResult) series() ([]Point, int) { return res.Points, res.ConvergedAt }
func (res *Result) heapBytes() uint64          { return res.HeapBytes }
func (res *LiveResult) heapBytes() uint64      { return res.HeapBytes }

// run is the shared trial fan-out of RunTrials and RunLiveTrials: one trial
// per seed across a pool of Workers goroutines, then the aggregation.
func (tr *Campaign[P, R]) run(trial func(seed int64) (R, error)) error {
	tr.Trials = make([]R, len(tr.Seeds))
	errs := make([]error, len(tr.Seeds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < tr.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tr.Trials[i], errs[i] = trial(tr.Seeds[i])
			}
		}()
	}
	for i := range tr.Seeds {
		next <- i
	}
	close(next)
	wg.Wait()

	series := make([][]Point, len(tr.Seeds))
	conv := make([]int, len(tr.Seeds))
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("trial %d (seed %d): %w", i, tr.Seeds[i], err)
		}
		series[i], conv[i] = tr.Trials[i].series()
	}
	tr.Agg = aggregateSeries(series, conv)
	return nil
}

// ConvergedTrials counts trials that reached perfection.
func (tr *Campaign[P, R]) ConvergedTrials() int {
	n := 0
	for _, t := range tr.Trials {
		if _, at := t.series(); at >= 0 {
			n++
		}
	}
	return n
}

// WriteCSV emits the aggregate per-cycle series with a header. Campaigns
// run with sampled measurement grow ±ci columns.
func (tr *Campaign[P, R]) WriteCSV(w io.Writer) error { return writeAggCSV(w, tr.Agg, tr.sampled) }

// aggregateSeries is the engine-agnostic aggregation core: one per-cycle
// Point series and ConvergedAt per trial in, mean/min/max aggregates out.
// Series shorter than the longest one (early convergence) contribute their
// final point for the remaining cycles.
func aggregateSeries(series [][]Point, convergedAt []int) []AggPoint {
	cycles := 0
	for _, pts := range series {
		cycles = max(cycles, len(pts))
	}
	agg := make([]AggPoint, 0, cycles)
	for c := 0; c < cycles; c++ {
		a := AggPoint{Cycle: c, Trials: len(series)}
		converged := 0
		for i, pts := range series {
			pt := pts[len(pts)-1]
			if c < len(pts) {
				pt = pts[c]
			}
			a.LeafMean += pt.LeafMissing
			a.PrefixMean += pt.PrefixMissing
			a.LeafCIMean += pt.LeafCI
			a.PrefixCIMean += pt.PrefixCI
			if i == 0 {
				a.LeafMin, a.PrefixMin = pt.LeafMissing, pt.PrefixMissing
			}
			a.LeafMin, a.LeafMax = min(a.LeafMin, pt.LeafMissing), max(a.LeafMax, pt.LeafMissing)
			a.PrefixMin, a.PrefixMax = min(a.PrefixMin, pt.PrefixMissing), max(a.PrefixMax, pt.PrefixMissing)
			if convergedAt[i] >= 0 && c >= convergedAt[i] {
				converged++
			}
		}
		a.LeafMean /= float64(len(series))
		a.PrefixMean /= float64(len(series))
		a.LeafCIMean /= float64(len(series))
		a.PrefixCIMean /= float64(len(series))
		a.ConvergedFrac = float64(converged) / float64(len(series))
		agg = append(agg, a)
	}
	return agg
}

// writeAggCSV is the shared CSV emitter for aggregate series; sampled adds
// the estimator interval columns, keeping full-measurement output
// byte-identical to the historical format.
func writeAggCSV(w io.Writer, agg []AggPoint, sampled bool) error {
	header := "cycle,trials,leaf_missing_mean,leaf_missing_min,leaf_missing_max,prefix_missing_mean,prefix_missing_min,prefix_missing_max,converged_frac"
	if sampled {
		header += ",leaf_ci_mean,prefix_ci_mean"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, a := range agg {
		row := fmt.Sprintf("%d,%d,%.6e,%.6e,%.6e,%.6e,%.6e,%.6e,%.4f", a.Cycle, a.Trials,
			a.LeafMean, a.LeafMin, a.LeafMax, a.PrefixMean, a.PrefixMin, a.PrefixMax, a.ConvergedFrac)
		if sampled {
			row += fmt.Sprintf(",%.6e,%.6e", a.LeafCIMean, a.PrefixCIMean)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
