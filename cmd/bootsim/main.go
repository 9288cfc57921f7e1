// Command bootsim reproduces the paper's evaluation (Section 5) from the
// command line. Each experiment prints CSV series equivalent to the
// paper's figures:
//
//	bootsim -experiment fig3                 # Figure 3: no failures
//	bootsim -experiment fig4                 # Figure 4: 20% message drop
//	bootsim -experiment churn                # Section 5 churn robustness
//	bootsim -experiment massjoin             # network doubles at cycle 10
//	bootsim -experiment scaling              # cycles-to-converge vs N
//	bootsim -experiment ablation             # prefix-feedback and cr ablations
//	bootsim -experiment chord                # Chord ring+finger baseline
//
// The default sizes are laptop-quick; pass -paper for the paper's
// 2^14, 2^16 and 2^18 (the largest takes a while and several GB of RAM).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/memstats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bootsim:", err)
		os.Exit(1)
	}
}

type options struct {
	experiment     string
	sizes          []int
	cycles         int
	drop           float64
	seed           int64
	sampler        experiment.SamplerKind
	warmup         int
	runs           int
	trials         int
	workers        int
	measureWorkers int
	measureSample  int
	shards         int
	memstats       bool
	cfg            core.Config
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

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("bootsim", flag.ContinueOnError)
	var (
		expName  = fs.String("experiment", "fig3", "fig3|fig4|churn|massjoin|scaling|ablation|chord")
		nList    = fs.String("n", "1024,4096,16384", "comma-separated network sizes")
		paper    = fs.Bool("paper", false, "use the paper's sizes 2^14,2^16,2^18 (slow, memory-hungry)")
		cycles   = fs.Int("cycles", 0, "max cycles (0 = per-experiment default)")
		drop     = fs.Float64("drop", -1, "message drop probability (-1 = per-experiment default)")
		seed     = fs.Int64("seed", 42, "random seed")
		sampler  = fs.String("sampler", "oracle", "oracle|newscast")
		warmup   = fs.Int("warmup", 10, "newscast warmup cycles before bootstrap starts")
		runs     = fs.Int("runs", 1, "independent repetitions per size")
		trials   = fs.Int("trials", 1, "independent seeds aggregated per size (mean/min/max series)")
		workers  = fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		measureW = fs.Int("measure-workers", 0, "goroutines sharding the per-cycle ground-truth measurement (0 = GOMAXPROCS; output is identical for any value)")
		measureS = fs.Int("measure-sample", 0, "per-cycle measurement sample size with 95% confidence intervals (0 = exact full-network measurement)")
		shards   = fs.Int("shards", 0, "parallel simulation shards per run (0/1 = sequential engine; any value >1 yields one deterministic trace, distinct from the sequential one)")
		memst    = fs.Bool("memstats", false, "print a # memstats header per size (live heap bytes per node, peak RSS; under -trials the campaign peak across workers)")
		b        = fs.Int("b", core.DefaultB, "bits per digit")
		k        = fs.Int("k", core.DefaultK, "entries per prefix-table slot")
		c        = fs.Int("c", core.DefaultC, "leaf set size")
		cr       = fs.Int("cr", core.DefaultCR, "random samples per message")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o := &options{
		experiment:     *expName,
		cycles:         *cycles,
		drop:           *drop,
		seed:           *seed,
		warmup:         *warmup,
		runs:           *runs,
		trials:         *trials,
		workers:        *workers,
		measureWorkers: *measureW,
		measureSample:  *measureS,
		shards:         *shards,
		memstats:       *memst,
		cfg: core.Config{
			B: *b, K: *k, C: *c, CR: *cr, Delta: core.DefaultDelta,
		},
	}
	var err error
	if o.sampler, err = experiment.ParseSampler(*sampler); err != nil {
		return nil, err
	}
	if *paper {
		o.sizes = []int{1 << 14, 1 << 16, 1 << 18}
	} else {
		for _, s := range strings.Split(*nList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad -n element %q: %w", s, err)
			}
			o.sizes = append(o.sizes, v)
		}
	}
	if o.runs < 1 {
		return nil, fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	}
	if o.trials < 1 {
		return nil, fmt.Errorf("-trials must be at least 1, got %d", o.trials)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must not be negative, got %d", o.workers)
	}
	if o.measureWorkers < 0 {
		return nil, fmt.Errorf("-measure-workers must not be negative, got %d", o.measureWorkers)
	}
	if o.measureSample < 0 {
		return nil, fmt.Errorf("-measure-sample must not be negative, got %d", o.measureSample)
	}
	if o.shards < 0 {
		return nil, fmt.Errorf("-shards must not be negative, got %d", o.shards)
	}
	if o.trials > 1 {
		if o.experiment != "fig3" && o.experiment != "fig4" {
			return nil, fmt.Errorf("-trials aggregation is only supported for fig3 and fig4, not %q", o.experiment)
		}
		if o.runs > 1 {
			return nil, fmt.Errorf("-runs and -trials are mutually exclusive (-runs prints raw per-seed series, -trials aggregates them)")
		}
	}
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	switch o.experiment {
	case "fig3":
		return runConvergence(o, out, 0, "fig3 (no failures)")
	case "fig4":
		drop := 0.2
		if o.drop >= 0 {
			drop = o.drop
		}
		return runConvergence(o, out, drop, "fig4 (message drop)")
	case "churn":
		return runChurn(o, out)
	case "massjoin":
		return runMassJoin(o, out)
	case "scaling":
		return runScaling(o, out)
	case "ablation":
		return runAblation(o, out)
	case "chord":
		return runChordBaseline(o, out)
	default:
		return fmt.Errorf("unknown experiment %q", o.experiment)
	}
}

func (o *options) maxCycles(def int) int {
	if o.cycles > 0 {
		return o.cycles
	}
	return def
}

// params is the experiment.Params every simnet experiment starts from: the
// size plus what the flags fix, with the common defaults (no drop unless
// -drop, a 60-cycle budget). Each experiment amends what it varies — seed
// offset, drop, budget, protocol config, faults — and the ones that print a
// # memstats line ask for the heap capture.
func (o *options) params(n int) experiment.Params {
	return experiment.Params{
		N:              n,
		Seed:           o.seed,
		Config:         o.cfg,
		Drop:           maxF(o.drop, 0),
		MaxCycles:      o.maxCycles(60),
		Sampler:        o.sampler,
		WarmupCycles:   o.warmup,
		MeasureWorkers: o.measureWorkers,
		MeasureSample:  o.measureSample,
		Shards:         o.shards,
	}
}

// runConvergence reproduces Figures 3 and 4: per-cycle missing-entry
// proportions per network size.
func runConvergence(o *options, out io.Writer, drop float64, label string) error {
	fmt.Fprintf(out, "# experiment=%s sampler=%s drop=%.2f b=%d k=%d c=%d cr=%d\n",
		label, o.sampler, drop, o.cfg.B, o.cfg.K, o.cfg.C, o.cfg.CR)
	def := 40
	if drop > 0 {
		def = 60
	}
	if o.trials > 1 {
		return runConvergenceTrials(o, out, drop, def)
	}
	for _, n := range o.sizes {
		for rep := 0; rep < o.runs; rep++ {
			p := o.params(n)
			p.Seed += int64(rep) * 7919
			p.Drop = drop
			p.MaxCycles = o.maxCycles(def)
			p.MemStats = o.memstats
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

// runConvergenceTrials is the multi-trial variant of runConvergence: per
// size it fans o.trials independent seeds across o.workers workers and
// prints the aggregated (mean/min/max) per-cycle convergence series. The
// output is a pure function of the seeds, independent of the worker count.
func runConvergenceTrials(o *options, out io.Writer, drop float64, defCycles int) error {
	for _, n := range o.sizes {
		p := o.params(n)
		p.Drop = drop
		p.MaxCycles = o.maxCycles(defCycles)
		p.MemStats = o.memstats
		res, err := experiment.RunTrials(p, experiment.Seeds(o.seed, o.trials), o.workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# n=%d trials=%d converged_trials=%d\n",
			n, o.trials, res.ConvergedTrials())
		if o.memstats {
			// Campaign accounting: peak across per-trial samples, with the
			// above-baseline heap attributed over the res.Workers trials
			// that were live at once.
			fmt.Fprintf(out, "# memstats n=%d trials=%d workers=%d %s\n",
				n, o.trials, res.Workers, res.Mem.Line(n, res.Workers))
		}
		if err := res.WriteCSV(out); err != nil {
			return err
		}
	}
	return nil
}

// runChurn reproduces the Section 5 churn claim: per-cycle quality while a
// fraction of the network is replaced every cycle, then after churn stops.
func runChurn(o *options, out io.Writer) error {
	fmt.Fprintf(out, "# experiment=churn sampler=%s rate=0.01 cycles 0-20, then churn-free\n", o.sampler)
	for _, n := range o.sizes {
		p := o.params(n)
		p.MaxCycles = o.maxCycles(50)
		p.Churn = experiment.Churn{Rate: 0.01, StartCycle: 0, StopCycle: 20}
		p.KeepRunningAfterPerfect = true
		p.MemStats = o.memstats
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
		p.MemStats = o.memstats
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
		for rep := 0; rep < o.runs; rep++ {
			p := o.params(n)
			p.Seed += int64(rep) * 104729
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
	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
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

// runChordBaseline runs the Chord ring+finger bootstrap for comparison.
func runChordBaseline(o *options, out io.Writer) error {
	fmt.Fprintln(out, "# experiment=chord baseline (ring + fingers)")
	fmt.Fprintln(out, "n,cycle,finger_wrong,leaf_missing,sent")
	ccfg := chord.Config{C: o.cfg.C, CR: o.cfg.CR, Delta: o.cfg.Delta}
	for _, n := range o.sizes {
		res, err := experiment.RunChord(experiment.ChordParams{
			N:         n,
			Seed:      o.seed,
			Config:    ccfg,
			Drop:      maxF(o.drop, 0),
			MaxCycles: o.maxCycles(60),
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

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
