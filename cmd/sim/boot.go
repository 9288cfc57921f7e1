package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/memstats"
)

// params is the experiment.Params every simnet campaign starts from: the
// size plus what the flags fix. Each campaign amends what it varies.
func (o *options) params(n int) experiment.Params {
	return experiment.Params{
		N:              n,
		Seed:           o.seed,
		Config:         o.cfg,
		Drop:           o.drop,
		MaxCycles:      o.cycles,
		Sampler:        o.sampler,
		WarmupCycles:   o.warmup,
		MeasureWorkers: o.measureWorkers,
		MeasureSample:  o.measureSample,
		Shards:         o.shards,
		MemStats:       o.memstats,
	}
}

// memstatsLine prints the memory accounting header for a completed run of
// n nodes when -memstats is set. heapBytes is the live heap the harness
// captured while the network still existed; peak RSS is a process-wide
// high-water mark, so across several sizes later lines dominate earlier
// ones.
func (o *options) memstatsLine(out io.Writer, n int, heapBytes uint64) {
	if o.memstats {
		fmt.Fprintf(out, "# memstats n=%d %s\n", n, memstats.Line(n, heapBytes))
	}
}

// convergence reproduces Figures 3 and 4: per-cycle missing-entry
// proportions per network size, one raw series per -runs seed, or with
// -trials the mean/min/max across seeds, which is independent of -workers.
func convergence(label string) func(*options, io.Writer) error {
	return func(o *options, out io.Writer) error {
		fmt.Fprintf(out, "# experiment=%s sampler=%s drop=%.2f b=%d k=%d c=%d cr=%d\n",
			label, o.sampler, o.drop, o.cfg.B, o.cfg.K, o.cfg.C, o.cfg.CR)
		for _, n := range o.sizes {
			p := o.params(n)
			if o.trials > 1 {
				res, err := experiment.RunTrials(p, experiment.Seeds(o.seed, o.trials), o.workers)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "# n=%d trials=%d converged_trials=%d\n", n, o.trials, res.ConvergedTrials())
				if o.memstats {
					// Campaign accounting: peak across per-trial samples, with
					// the above-baseline heap attributed over the res.Workers
					// trials that were live at once.
					fmt.Fprintf(out, "# memstats n=%d trials=%d workers=%d %s\n",
						n, o.trials, res.Workers, memstats.CampaignLine(n, res.Workers, res.HeapBaseline, res.HeapPeak()))
				}
				if err := res.WriteCSV(out); err != nil {
					return err
				}
				continue
			}
			for rep, seed := range experiment.Seeds(o.seed, o.runs) {
				p.Seed = seed
				res, err := experiment.Run(p)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "# n=%d run=%d converged_at=%d sent=%d dropped=%d\n",
					n, rep, res.ConvergedAt, res.Stats.Sent, res.Stats.Dropped)
				o.memstatsLine(out, n, res.HeapBytes)
				if err := res.WriteCSV(out); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// runChurn reproduces the Section 5 churn claim: per-cycle quality while a
// fraction of the network is replaced every cycle, then after churn stops.
func runChurn(o *options, out io.Writer) error {
	fmt.Fprintf(out, "# experiment=churn sampler=%s rate=0.01 cycles 0-20, then churn-free\n", o.sampler)
	for _, n := range o.sizes {
		p := o.params(n)
		p.Churn = experiment.Churn{Rate: 0.01, StartCycle: 0, StopCycle: 20}
		p.KeepRunningAfterPerfect = true
		res, err := experiment.Run(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# n=%d final_leaf_missing=%e final_prefix_missing=%e\n",
			n, res.Final().LeafMissing, res.Final().PrefixMissing)
		o.memstatsLine(out, n, res.HeapBytes)
		if err := res.WriteCSV(out); err != nil {
			return err
		}
	}
	return nil
}

// runMassJoin doubles the network at cycle 10 — the paper's motivating
// "massive joins" scenario — and reports the recovery series.
func runMassJoin(o *options, out io.Writer) error {
	fmt.Fprintf(out, "# experiment=massjoin sampler=%s double at cycle 10\n", o.sampler)
	for _, n := range o.sizes {
		p := o.params(n)
		p.Join = experiment.Join{Cycle: 10, Count: n}
		res, err := experiment.Run(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# n=%d joined=%d reconverged_at=%d\n", n, n, res.ConvergedAt)
		o.memstatsLine(out, 2*n, res.HeapBytes)
		if err := res.WriteCSV(out); err != nil {
			return err
		}
	}
	return nil
}

// runScaling reproduces the logarithmic-convergence claim: cycles to
// perfection as a function of N.
func runScaling(o *options, out io.Writer) error {
	fmt.Fprintf(out, "# experiment=scaling sampler=%s\n", o.sampler)
	fmt.Fprintln(out, "n,run,converged_at_cycle,sent_messages")
	for _, n := range o.sizes {
		p := o.params(n)
		for rep, seed := range experiment.Seeds(o.seed, o.runs) {
			p.Seed = seed
			res, err := experiment.Run(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d,%d,%d,%d\n", n, rep, res.ConvergedAt, res.Stats.Sent)
		}
	}
	return nil
}

// runAblation compares the full protocol against the no-prefix-feedback
// variant and several cr values.
func runAblation(o *options, out io.Writer) error {
	fmt.Fprintf(out, "# experiment=ablation sampler=%s\n", o.sampler)
	fmt.Fprintln(out, "n,variant,converged_at_cycle,final_leaf_missing,final_prefix_missing,sent_messages")
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"full", func(*core.Config) {}},
		{"no_prefix_feedback", func(c *core.Config) { c.DisablePrefixFeedback = true }},
		{"cr=0", func(c *core.Config) { c.CR = 0 }},
		{"cr=10", func(c *core.Config) { c.CR = 10 }},
		{"cr=100", func(c *core.Config) { c.CR = 100 }},
	}
	for _, n := range o.sizes {
		for _, v := range variants {
			p := o.params(n)
			v.mut(&p.Config)
			res, err := experiment.Run(p)
			if err != nil {
				return err
			}
			f := res.Final()
			fmt.Fprintf(out, "%d,%s,%d,%e,%e,%d\n",
				n, v.name, res.ConvergedAt, f.LeafMissing, f.PrefixMissing, res.Stats.Sent)
		}
	}
	return nil
}

// runChord runs the Chord ring+finger bootstrap for comparison.
func runChord(o *options, out io.Writer) error {
	fmt.Fprintln(out, "# experiment=chord baseline (ring + fingers)")
	fmt.Fprintln(out, "n,cycle,finger_wrong,leaf_missing,sent")
	for _, n := range o.sizes {
		res, err := experiment.RunChord(experiment.ChordParams{
			N:         n,
			Seed:      o.seed,
			Config:    o.cfg,
			Drop:      o.drop,
			MaxCycles: o.cycles,
		})
		if err != nil {
			return err
		}
		for _, pt := range res.Points {
			fmt.Fprintf(out, "%d,%d,%e,%e,%d\n", n, pt.Cycle, pt.FingerWrong, pt.LeafMissing, pt.Sent)
		}
		fmt.Fprintf(out, "# n=%d converged_at=%d\n", n, res.ConvergedAt)
	}
	return nil
}
