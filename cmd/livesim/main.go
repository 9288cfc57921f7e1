// Command livesim runs multi-trial campaigns of the bootstrapping service
// on the concurrent goroutine runtime (one goroutine per host, wall-clock
// cycles, real nondeterministic scheduling) under injected churn and
// failure scenarios. It is the livenet counterpart of bootsim -trials:
// where bootsim aggregates deterministic simulations, livesim validates
// the same protocol under true parallel dispatch.
//
// Usage:
//
//	livesim [flags]
//
//	-n int          network size (hosts) (default 1024)
//	-trials int     independent trials, each with its own seed (default 4)
//	-workers int    concurrent trials; 0 = GOMAXPROCS (default 0)
//	-measure-workers int  goroutines sharding the paused-world
//	                measurement; 0 = GOMAXPROCS (default 0)
//	-measure-sample int  per-cycle measurement sample size with 95%
//	                confidence intervals; 0 = exact full measurement
//	                (default 0)
//	-sampler name   oracle|newscast sampling layer under the bootstrap
//	                nodes (default "oracle")
//	-warmup int     newscast warmup cycles before the bootstrap layer
//	                starts; ignored for the oracle sampler (default 10)
//	-scenario name  none|churn|partition|drop|latency (default "churn")
//	-drop float     initial per-message loss probability (default 0)
//	-latency dur    max delivery latency; min is latency/4 (default 0)
//	-period dur     gossip period Δ; 0 scales with -n (default 0)
//	-cycles int     campaign length in periods (default 30)
//	-seed int       base seed; trial i uses seed+i*7919 (default 42)
//	-inbox int      per-host inbox bound; 0 = engine default (default 0)
//	-memstats       print a # memstats campaign header: baseline and peak
//	                live heap across all trials, heap bytes per node at
//	                peak, and peak RSS (default false)
//
// Examples:
//
//	livesim -n 256 -trials 4 -scenario none          # quick sanity run
//	livesim -n 10000 -trials 8 -workers 4 -scenario churn
//	livesim -n 1024 -trials 8 -scenario partition -drop 0.05 -latency 4ms
//
// Output: a comment header per campaign (scenario, fault plan of trial 0,
// per-trial summaries), then the aggregate per-cycle CSV series — mean,
// min and max of the missing-entry proportions across trials plus the
// fraction of trials converged by each cycle, the same format bootsim
// -trials emits, so the two engines' campaigns plot side by side.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/host"
	"repro/internal/livenet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "livesim:", err)
		os.Exit(1)
	}
}

// options is the parsed command line: the flags fill in the campaign's
// LiveParams directly, plus what only the CLI needs.
type options struct {
	p       experiment.LiveParams
	trials  int
	workers int
	latency time.Duration
	seed    int64
}

func parseArgs(args []string) (*options, error) {
	o := &options{p: experiment.LiveParams{Config: core.DefaultConfig()}}
	fs := flag.NewFlagSet("livesim", flag.ContinueOnError)
	fs.IntVar(&o.p.N, "n", 1024, "network size (hosts)")
	fs.IntVar(&o.trials, "trials", 4, "independent trials")
	fs.IntVar(&o.workers, "workers", 0, "concurrent trials (0 = GOMAXPROCS)")
	fs.IntVar(&o.p.MeasureWorkers, "measure-workers", 0, "goroutines sharding the paused-world measurement (0 = GOMAXPROCS)")
	fs.IntVar(&o.p.MeasureSample, "measure-sample", 0, "per-cycle measurement sample size with 95% confidence intervals (0 = exact full measurement)")
	sampler := fs.String("sampler", "oracle", "oracle|newscast sampling layer under the bootstrap nodes")
	fs.IntVar(&o.p.WarmupCycles, "warmup", 10, "newscast warmup cycles before the bootstrap layer starts (ignored for oracle)")
	scenario := fs.String("scenario", "churn", "none|churn|partition|drop|latency")
	fs.Float64Var(&o.p.Drop, "drop", 0, "initial per-message loss probability")
	fs.DurationVar(&o.latency, "latency", 0, "max delivery latency (min is latency/4)")
	fs.DurationVar(&o.p.Period, "period", 0, "gossip period (0 scales with -n)")
	fs.IntVar(&o.p.Cycles, "cycles", 30, "campaign length in periods")
	fs.Int64Var(&o.seed, "seed", 42, "base seed")
	fs.IntVar(&o.p.InboxSize, "inbox", 0, "per-host inbox bound (0 = engine default)")
	fs.BoolVar(&o.p.MemStats, "memstats", false, "print one # memstats campaign header (baseline and peak live heap across all trials, heap bytes per node, peak RSS)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.p.Sampler, err = experiment.ParseSampler(*sampler); err != nil {
		return nil, err
	}
	if o.p.Scenario, err = livenet.ParseScenario(*scenario); err != nil {
		return nil, err
	}
	if o.trials < 1 {
		return nil, fmt.Errorf("-trials must be at least 1, got %d", o.trials)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must not be negative, got %d", o.workers)
	}
	o.p.MinLatency, o.p.MaxLatency = o.latency/4, o.latency
	// Scenarios disturb the network mid-run; keep measuring the recovery
	// tail instead of exiting on first perfection.
	o.p.KeepRunningAfterPerfect = o.p.Scenario.Schedule != nil
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	p := o.p
	seeds := experiment.Seeds(o.seed, o.trials)
	start := time.Now()
	res, err := experiment.RunLiveTrials(p, seeds, o.workers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	fmt.Fprintf(out, "# livesim n=%d trials=%d workers=%d scenario=%s sampler=%s measure_sample=%d drop=%.2f latency=%s period=%s cycles=%d elapsed=%s\n",
		p.N, o.trials, o.workers, p.Scenario.Name, p.Sampler, p.MeasureSample, p.Drop, o.latency, res.Params.Period, p.Cycles, elapsed)
	if sched := res.Trials[0].Schedule; len(sched) > 0 {
		fmt.Fprintf(out, "# fault plan (trial 0, seed %d):\n", seeds[0])
		for _, e := range sched {
			fmt.Fprintf(out, "#   %s\n", e)
		}
	}
	for i, t := range res.Trials {
		f := t.Final()
		fmt.Fprintf(out, "# trial=%d seed=%d converged_at=%d killed=%d respawned=%d final_leaf_missing=%e final_prefix_missing=%e sent=%d delivered=%d dropped=%d overflow=%d\n",
			i, t.Seed, t.ConvergedAt, t.Killed, t.Respawned,
			f.LeafMissing, f.PrefixMissing,
			t.Stats.Sent, t.Stats.Delivered, t.Stats.Dropped, t.Stats.Overflow)
	}
	if p.MemStats {
		// Campaign-level accounting: one tracker samples the heap at the
		// end of every trial (hosts still running) and keeps the peak, so
		// the figure reflects the res.Workers trials live at once rather
		// than whichever stragglers a single end-of-campaign snapshot
		// would catch.
		fmt.Fprintf(out, "# memstats n=%d trials=%d workers=%d %s\n",
			p.N, o.trials, res.Workers, res.Mem.Line(p.N, res.Workers))
	}
	var total host.Stats
	for _, t := range res.Trials {
		total.Add(t.Stats)
	}
	fmt.Fprintf(out, "# converged_trials=%d/%d total_sent=%d total_delivered=%d total_dropped=%d total_overflow=%d\n",
		res.ConvergedTrials(), o.trials, total.Sent, total.Delivered, total.Dropped, total.Overflow)
	return res.WriteCSV(out)
}
