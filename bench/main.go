// Command bench is the repository's one seeded benchmark: eight workloads
// over the three engines and the serving plane, end-to-end numbers from an
// untraced run and per-layer numbers from a traced one. See README.md and
// ../BENCHMARK.json.
//
//	go run ./bench -workload boot-sim -seed 1 -seconds 10 -trace 0
//	go run ./bench -seed 1 -out set1.jsonl        # every workload, both modes
//	go run ./bench -compare set1.jsonl set2.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json carries it).
	why string
	// engine is the layer engine.send spans are charged to.
	engine string
	run    func(rc *runCtx) error
}

// runCtx is what a workload run is given and fills in.
type runCtx struct {
	seed    int64
	seconds float64
	sz      sizes
	res     *result
	// tr is nil in the untraced run.
	tr *tracer
}

// trialSeed derives the i-th trial seed of a run from -seed.
func (rc *runCtx) trialSeed(i int) int64 { return rc.seed*1_000_003 + int64(i) }

var workloads = []workload{
	{"boot-sim", "paper Figure 3 on simnet: core does ~90% of the work, so core/peer/flat changes show here and engine changes must not", "simnet", runBootSim},
	{"churn-sim", "same layers under 2 shards, NEWSCAST, 10% drop, 1%/cycle churn and sampled measurement: catches gains that cost the churn/sharded path", "simnet", runChurnSim},
	{"churn-live", "goroutine engine, wall-clock paced: host CPU per node-cycle under kill/respawn churn with stop-the-world measurement", "livenet", runChurnLive},
	{"relay-sim", "null protocol on simnet, 1-entry messages: sched and engine dispatch are the whole cost, core does nothing", "simnet", runRelaySim},
	{"relay-live", "null protocol on livenet: inbox, timing wheel and goroutine hand-off per message, no protocol work to dilute it", "livenet", runRelayLive},
	{"relay-sock-small", "null protocol over loopback TCP with the smallest frame: syscalls per message dominate, where write batching must show", "transport", runRelaySockSmall},
	{"relay-sock-full", "null protocol over loopback TCP at today's mean bootstrap message (160 entries): codec and bytes per message dominate", "transport", runRelaySockFull},
	{"serve", "the paper's product feeding its consumer: DHT get/put mix under remove/join churn on a bootstrapped overlay; gossip layers idle", "dht", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// envInfo describes the machine a run was made on.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg    float64 `json:"loadavg_1m"` // -1 where unreadable
}

// benchProcs is the parallelism every run is pinned to, so numbers from
// machines with more cores stay comparable; load is generated by at most
// this many driver goroutines and TCP connections.
const benchProcs = 2

func currentEnv() *envInfo {
	e := &envInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg: -1}
	if l, ok := loadAverage(); ok {
		e.LoadAvg = l
	}
	return e
}

// runOne runs one workload once, traced or not, and returns its result.
// Gate violations come back in the result; err is for failures of the
// benchmark itself.
func runOne(w workload, seed int64, seconds float64, trace bool, sz sizes, traceDir string) (*result, error) {
	rc := &runCtx{seed: seed, seconds: seconds, sz: sz, res: newResult(w.name, seed, seconds, trace)}
	if trace {
		rc.tr = newTracer(w.engine)
	}
	rc.res.Env = currentEnv()
	if rc.res.Env.LoadAvg > 1.0 {
		rc.res.note("warning: load average %.2f at start; timings may be noisy", rc.res.Env.LoadAvg)
	}
	if err := w.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if trace {
		rc.res.fillAbsent()
		if traceDir != "" {
			path := fmt.Sprintf("%s/trace-%s.json", traceDir, w.name)
			if err := rc.tr.write(path, w.name, seed); err != nil {
				return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
			}
			rc.res.note("trace written to %s", path)
		}
	}
	for _, d := range rc.res.defs {
		if _, ok := rc.res.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
	}
	if rc.res.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", w.name)
	}
	return rc.res, nil
}

// printResult writes the human-readable block: one line per metric
// (workload metric value unit n, then range and tail where sampled).
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s  go=%s nproc=%d gomaxprocs=%d loadavg=%.2f\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.LoadAvg)
	for _, d := range r.defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d", r.Workload, d.Name, m.Value, m.Unit, m.N)
		if m.N > 1 {
			fmt.Fprintf(w, " min=%.6g max=%.6g", m.Min, m.Max)
		}
		if m.Tail != "" {
			fmt.Fprintf(w, " %s=%.6g", m.Tail, m.TailV)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d correct=%v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	for _, d := range r.Digests {
		fmt.Fprintf(w, "%s digest %s\n", r.Workload, d)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
}

// contractLine is the last line of a single-workload run: exactly the keys
// the driver reads.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// appendRecord adds the run as one JSON line to the -out file.
func appendRecord(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed    = fs.Int64("seed", 1, "seed every trial seed and input is derived from")
		seconds = fs.Float64("seconds", 10, "how long the timed region of one run measures")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		out     = fs.String("out", "", "append one JSON record per run to this file")
		compare = fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)

	type job struct {
		w     workload
		trace bool
	}
	var jobs []job
	if *name == "" {
		for _, tr := range []bool{false, true} {
			for _, w := range workloads {
				jobs = append(jobs, job{w, tr})
			}
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		jobs = []job{{w, *trace == 1}}
	}

	code := 0
	var last *result
	for _, j := range jobs {
		r, err := runOne(j.w, *seed, *seconds, j.trace, fullSizes, "bench/out")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, r)
		if *out != "" {
			if err := appendRecord(*out, r); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if !r.Correct {
			code = 1
		}
		last = r
	}
	if code != 0 {
		fmt.Fprintln(stderr, "bench: a correctness gate failed; see the notes above")
		return code
	}
	if *name != "" {
		fmt.Fprintln(stdout, contractLine(last))
	}
	return 0
}
