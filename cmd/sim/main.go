// Command sim runs the reproduction's campaigns: the paper's evaluation
// (Section 5) on the deterministic simulator, the same trial on the
// goroutine runtime and across OS processes over loopback sockets, the DHT
// serving plane, and the sampling layer (Section 3) alone. It is invoked as
//
//	sim <campaign> [flags]
//
// and every campaign prints CSV series under # comment headers:
//
//	sim fig3 -n 1024,4096        # Figure 3: missing entries per cycle, no failures (-paper: 2^14, 2^16, 2^18)
//	sim fig4 -trials 8           # Figure 4: the same under 20% message drop, 8 seeds aggregated
//	sim churn                    # Section 5 churn: 1% of the nodes replaced per cycle for 20 cycles
//	sim massjoin                 # the network doubles at cycle 10
//	sim scaling -runs 3          # cycles to converge against N
//	sim ablation                 # no prefix feedback, and cr = 0, 10, 100
//	sim chord                    # the Chord ring + fingers baseline
//	sim live -scenario partition # the goroutine runtime, -trials seeds aggregated
//	sim sock -procs 4            # worker processes over loopback TCP, conservation-gated
//	sim load -scenario flash     # DHT get/put load on the bootstrapped overlay, >= 99% success gated
//	sim selfheal                 # NEWSCAST views after 70% of the nodes fail
//	sim startspread              # broadcast start-signal skew
//	sim sizeest                  # gossip network-size estimation
//
// There is one flag set: a flag means the same in every campaign, and a
// campaign ignores the flags it has no use for. The defaults a campaign
// differs on sit in its row of the campaign table; `sim <campaign> -help`
// prints the flags with that campaign's defaults. -cpuprofile and
// -memprofile write pprof profiles of any campaign. A wrong command line
// exits 2, a failed campaign 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/experiment"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/simnet"
)

// campaign is one row of the campaign table.
type campaign struct {
	name string
	// defaults are the flags this campaign sets differently from the
	// shared defaults. They are parsed before the command line, so -help
	// shows them. A campaign whose default -n is one size runs one network.
	defaults string
	// trials marks the campaigns that aggregate -trials seeds.
	trials bool
	run    func(o *options, out io.Writer) error
}

const bootSizes = "-n 1024,4096,16384"

var campaigns = []campaign{
	{"fig3", bootSizes + " -cycles 40", true, convergence("fig3 (no failures)")},
	{"fig4", bootSizes + " -cycles 60 -drop 0.2", true, convergence("fig4 (message drop)")},
	{"churn", bootSizes + " -cycles 50", false, runChurn},
	{"massjoin", bootSizes, false, runMassJoin},
	{"scaling", bootSizes, false, runScaling},
	{"ablation", bootSizes, false, runAblation},
	{"chord", bootSizes, false, runChord},
	{"live", "-trials 4 -scenario churn -cycles 30", true, runLive},
	{"sock", "-scenario churn -cycles 30", false, runSock},
	{"load", "-cycles 10", false, runLoad},
	{"selfheal", "-n 2000", false, runSelfHeal},
	{"startspread", "-n 2000", false, runStartSpread},
	{"sizeest", "-n 2000", false, runSizeEst},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	o, c, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "sim:", err)
		if c == nil {
			usage(stderr)
		}
		return 2
	}
	if err := profiled(o, func() error { return c.run(o, stdout) }); err != nil {
		fmt.Fprintf(stderr, "sim %s: %v\n", c.name, err)
		return 1
	}
	return 0
}

// profiled runs a campaign under the profiling flags: -cpuprofile samples
// the whole run, and -memprofile writes the allocation profile (every
// sampled allocation since the process started, plus what is still live)
// once the campaign has succeeded. A sock worker re-runs the driver's
// command line, so it writes its profiles under the driver's names suffixed
// with .worker<p>.
func profiled(o *options, run func() error) (err error) {
	cpu, mem := o.cpuProfile, o.memProfile
	if o.worker {
		suffix := fmt.Sprintf(".worker%d", o.proc)
		if cpu != "" {
			cpu += suffix
		}
		if mem != "" {
			mem += suffix
		}
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	if err := run(); err != nil || mem == "" {
		return err
	}
	f, err := os.Create(mem)
	if err != nil {
		return err
	}
	runtime.GC() // the live-object columns as of the campaign's end
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sim <campaign> [flags]; sim <campaign> -help lists the flags")
	fmt.Fprintln(w, "campaigns, and the defaults each sets:")
	for _, c := range campaigns {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.defaults)
	}
}

// options holds every flag of every campaign.
type options struct {
	args []string // the command line, campaign first: sock's workers re-run it

	sizes          sizes
	cycles         int
	drop           float64
	seed           int64
	sampler        experiment.SamplerKind
	warmup         int
	runs, trials   int
	workers        int
	measureWorkers int
	measureSample  int
	shards         int
	memstats       bool
	cfg            core.Config

	cpuProfile, memProfile string

	scenario              string
	latency, period       time.Duration
	procs, basePort, proc int
	worker                bool

	ops, clients, keys, valSize, replicas int
	get, zipf, churn                      float64
	boot                                  string

	fail float64
}

// n is the network size of a campaign that runs one network.
func (o *options) n() int { return o.sizes[0] }

// parse looks the campaign up and fills its options; c is nil when the
// campaign is unknown.
func parse(args []string, stderr io.Writer) (o *options, c *campaign, err error) {
	if len(args) == 0 {
		return nil, nil, errors.New("no campaign named")
	}
	i := slices.IndexFunc(campaigns, func(row campaign) bool { return row.name == args[0] })
	if i < 0 {
		return nil, nil, fmt.Errorf("unknown campaign %q", args[0])
	}
	c = &campaigns[i]
	o = &options{args: args, sizes: sizes{1024}, cfg: core.DefaultConfig()}
	fs := flag.NewFlagSet("sim "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Var(&o.sizes, "n", "network size; the simnet campaigns take a comma-separated list")
	paper := fs.Bool("paper", false, "the paper's sizes 2^14,2^16,2^18 (slow, several GB of RAM)")
	fs.IntVar(&o.cycles, "cycles", 60, "cycle budget")
	fs.Float64Var(&o.drop, "drop", 0, "message drop probability (initial, under a live scenario)")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	sampler := fs.String("sampler", "oracle", "oracle|newscast sampling layer under the bootstrap nodes")
	fs.IntVar(&o.warmup, "warmup", 10, "newscast warmup cycles before the bootstrap layer starts")
	fs.IntVar(&o.runs, "runs", 1, "independent repetitions per size, printed raw")
	fs.IntVar(&o.trials, "trials", 1, "independent seeds aggregated per size (mean/min/max series)")
	fs.IntVar(&o.workers, "workers", 0, "trials run at once (0 = GOMAXPROCS)")
	fs.IntVar(&o.measureWorkers, "measure-workers", 0, "goroutines sharding the per-cycle measurement (0 = GOMAXPROCS; output identical for any value)")
	fs.IntVar(&o.measureSample, "measure-sample", 0, "per-cycle measurement sample size with 95% confidence intervals (0 = exact full measurement)")
	fs.IntVar(&o.shards, "shards", 0, "parallel simnet shards per run (0/1 = sequential engine; every value >1 yields one trace, distinct from the sequential one)")
	fs.BoolVar(&o.memstats, "memstats", false, "print # memstats headers: live heap bytes per node and peak RSS")
	fs.IntVar(&o.cfg.B, "b", o.cfg.B, "bits per digit")
	fs.IntVar(&o.cfg.K, "k", o.cfg.K, "entries per prefix-table slot")
	fs.IntVar(&o.cfg.C, "c", o.cfg.C, "leaf set size")
	fs.IntVar(&o.cfg.CR, "cr", o.cfg.CR, "random samples per message")
	fs.StringVar(&o.scenario, "scenario", "none", "live, sock: none|churn|partition|drop|latency; load: none|churn|crash|partition|flash")
	fs.DurationVar(&o.latency, "latency", 0, "max injected delivery latency, on either link (min is latency/4)")
	fs.DurationVar(&o.period, "period", 0, "wall-clock gossip period (0 scales with -n)")
	fs.IntVar(&o.procs, "procs", 4, "worker processes sharding the hosts")
	fs.IntVar(&o.basePort, "base-port", 18500, "worker p listens on base-port+p")
	fs.BoolVar(&o.worker, "worker", false, "run as a sock worker process (internal)")
	fs.IntVar(&o.proc, "proc", 0, "sock worker shard index (internal)")
	fs.IntVar(&o.ops, "ops", 20000, "operations per cycle")
	fs.IntVar(&o.clients, "clients", 4, "closed-loop load clients")
	fs.IntVar(&o.keys, "keys", 1024, "distinct keys in the working set")
	fs.Float64Var(&o.get, "get", 0.9, "fraction of ops that are gets")
	fs.Float64Var(&o.zipf, "zipf", 0, "Zipf popularity exponent (>1 enables skew; 0 = uniform)")
	fs.IntVar(&o.valSize, "valsize", 64, "value size in bytes")
	fs.IntVar(&o.replicas, "replicas", dht.DefaultReplicas, "replication factor")
	fs.Float64Var(&o.churn, "churn", 0.01, "per-cycle fraction of live nodes removed (load -scenario churn)")
	fs.StringVar(&o.boot, "boot", "perfect", "perfect|simnet: perfect tables, or bootstrap via the gossip protocol")
	fs.Float64Var(&o.fail, "fail", 0.7, "fraction killed by selfheal")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the campaign to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file when the campaign ends")

	// The row's defaults become the flags' defaults; the command line
	// then overrides them.
	if err := fs.Parse(strings.Fields(c.defaults)); err != nil {
		return nil, c, err
	}
	fs.Visit(func(f *flag.Flag) { f.DefValue = f.Value.String() })
	oneNetwork := len(o.sizes) == 1
	if err := fs.Parse(args[1:]); err != nil {
		return nil, c, err
	}
	if *paper {
		o.sizes = sizes{1 << 14, 1 << 16, 1 << 18}
	}
	if o.sampler, err = experiment.ParseSampler(*sampler); err != nil {
		return nil, c, err
	}
	switch {
	case oneNetwork && len(o.sizes) > 1:
		return nil, c, fmt.Errorf("%s runs one network: -n takes one size, got %v", c.name, o.sizes)
	case o.runs < 1:
		return nil, c, fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	case o.trials < 1:
		return nil, c, fmt.Errorf("-trials must be at least 1, got %d", o.trials)
	case o.trials > 1 && !c.trials:
		return nil, c, fmt.Errorf("-trials aggregation is only supported for fig3, fig4 and live, not %s", c.name)
	case o.trials > 1 && o.runs > 1:
		return nil, c, errors.New("-runs and -trials are mutually exclusive (-runs prints raw per-seed series, -trials aggregates them)")
	case o.workers < 0:
		return nil, c, fmt.Errorf("-workers must not be negative, got %d", o.workers)
	}
	return o, c, nil
}

// sizes is the -n flag. Every size is checked here, once for every
// campaign: load and the sampling campaigns have no Validate to do it.
type sizes []int

func (s *sizes) String() string {
	parts := make([]string, len(*s))
	for i, n := range *s {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (s *sizes) Set(v string) error {
	*s = nil
	for _, f := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return err
		}
		if n < 2 {
			return fmt.Errorf("a network needs at least 2 nodes, got %d", n)
		}
		*s = append(*s, n)
	}
	return nil
}

// simnetWorld adds n nodes to a new simulated network, in address order,
// with the IDs id.Unique(n, seed+1).
func simnetWorld(n int, seed int64) (*simnet.Network, []peer.Descriptor) {
	net := simnet.New(simnet.Config{Seed: seed})
	ids := id.Unique(n, seed+1)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	return net, descs
}
