// Command netsim runs socket-engine campaigns of the bootstrapping
// service sharded across real OS processes: each worker process owns
// n/procs hosts behind its own TCP (or UDP) port on a port-indexed
// localhost topology, every protocol message crosses the kernel through
// the internal/wire codec, and the driver aggregates the same per-cycle
// CSV series bootsim and livesim emit. It is the third engine's campaign
// driver — after bootsim (deterministic simulation) and livesim
// (goroutine concurrency), netsim measures the protocol over an actual
// network stack: serialization, kernel backpressure, per-process failure
// isolation.
//
// Usage:
//
//	netsim [flags]
//
//	-n int          network size (hosts) (default 1024)
//	-procs int      worker processes sharding the hosts (default 4)
//	-cycles int     campaign length in periods (default 30)
//	-period dur     gossip period Δ; 0 scales with -n (default 0)
//	-scenario name  none|churn|partition|drop (default "churn")
//	-drop float     initial sender-side loss probability (default 0)
//	-seed int       campaign seed (default 42)
//	-base-port int  worker p listens on base-port+p (default 18500)
//	-inbox int      per-host inbox bound; 0 = engine default
//	-queue int      per-peer send-queue bound; 0 = engine default
//	-udp            datagram sockets instead of TCP streams
//	-measure-workers int  goroutines sharding each worker's measurement
//	-full           keep running after convergence
//	-o path         write the CSV to path instead of stdout
//
// The latency scenario is rejected when a worker expands its fault plan:
// the socket engine measures the kernel's real delivery latency instead of
// injecting one.
//
// Workers are respawns of the same binary (-worker -proc p) driven over a
// line protocol on stdin/stdout; their logs go to stderr. Each worker steps
// its shard of the one trial driver (experiment.LiveShard); the driver sums
// the workers' exact partial measurements and feeds them to the trial
// driver's recorder (experiment.ShardRecorder), which owns the stopping
// rule. Every wait on a worker is bounded: one that stops answering gets
// the whole campaign killed and a non-zero exit naming it. At the end of a
// campaign the driver drains every worker to quiescence and checks the
// cross-process conservation law ΣSent == ΣDelivered + ΣDropped +
// ΣOverflow — a non-conserved campaign exits non-zero.
//
// Examples:
//
//	netsim -n 128 -procs 2 -cycles 10 -scenario none
//	netsim -n 1024 -procs 4 -scenario churn
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/host"
	"repro/internal/livenet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line: the flags fill in the campaign's
// LiveParams directly (Sockets.Proc is this worker's shard, 0 in the
// driver), plus what only the CLI needs.
type options struct {
	p      experiment.LiveParams
	seed   int64
	out    string
	worker bool
}

func parseArgs(args []string) (*options, error) {
	sock := &experiment.Sockets{}
	o := &options{p: experiment.LiveParams{Config: core.DefaultConfig(), Sockets: sock}}
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.IntVar(&o.p.N, "n", 1024, "network size (hosts)")
	fs.IntVar(&sock.Procs, "procs", 4, "worker processes")
	fs.IntVar(&o.p.Cycles, "cycles", 30, "campaign length in periods")
	fs.DurationVar(&o.p.Period, "period", 0, "gossip period; 0 scales with -n")
	scenario := fs.String("scenario", "churn", "none|churn|partition|drop")
	fs.Float64Var(&o.p.Drop, "drop", 0, "initial loss probability")
	fs.Int64Var(&o.seed, "seed", 42, "campaign seed")
	fs.IntVar(&sock.BasePort, "base-port", 18500, "worker p listens on base-port+p")
	fs.IntVar(&o.p.InboxSize, "inbox", 0, "per-host inbox bound (0 = default)")
	fs.IntVar(&sock.QueueSize, "queue", 0, "per-peer send-queue bound (0 = default)")
	fs.BoolVar(&sock.UDP, "udp", false, "datagram sockets instead of TCP")
	fs.IntVar(&o.p.MeasureWorkers, "measure-workers", 0, "measurement goroutines per worker (0 = GOMAXPROCS)")
	fs.BoolVar(&o.p.KeepRunningAfterPerfect, "full", false, "keep running after convergence")
	fs.StringVar(&o.out, "o", "", "output path (default stdout)")
	fs.BoolVar(&o.worker, "worker", false, "run as a worker process (internal)")
	fs.IntVar(&sock.Proc, "proc", 0, "worker shard index (internal)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.p.Scenario, err = livenet.ParseScenario(*scenario); err != nil {
		return nil, err
	}
	if sock.Procs < 1 {
		return nil, fmt.Errorf("-procs must be at least 1")
	}
	if o.p.Period == 0 {
		// Resolve the default here so one value reaches every worker
		// explicitly rather than each process re-deriving it.
		o.p.Period = experiment.DefaultLivePeriod(o.p.N, 1)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 2
	}
	if opts.worker {
		if err := runWorker(opts, os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "netsim worker %d: %v\n", opts.p.Sockets.Proc, err)
			return 1
		}
		return 0
	}
	// A worker answers a CYCLE within a period plus its measurement, and a
	// DRAIN within the drain budget; anything slower is wedged.
	if err := runDriver(opts, args, 8*opts.p.Period+experiment.DrainBudget, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 1
	}
	return 0
}

// workerStats is what a worker reports of its shard: the traffic counters,
// and the frames its link handed to the kernel with the Write calls that
// carried them. The driver sums them field by field.
type workerStats struct {
	host.Stats
	Frames, Writes int64
}

func (w *workerStats) add(o workerStats) {
	w.Stats.Add(o.Stats)
	w.Frames += o.Frames
	w.Writes += o.Writes
}

// runWorker executes one shard under the driver's line protocol:
//
//	worker → READY
//	driver → CYCLE <c>     worker → POINT <json experiment.Partial>
//	driver → DRAIN         worker → DRAINED <ok> <json workerStats>
//	driver → STATS         worker → STATS <json workerStats>
//	driver → EXIT          worker closes and exits
func runWorker(opts *options, stdin io.Reader, stdout io.Writer) error {
	trial, err := experiment.OpenLiveShard(opts.p, opts.seed)
	if err != nil {
		return err
	}
	defer trial.Close()
	out := bufio.NewWriter(stdout)
	// say emits one protocol line: the words, then v as JSON when non-nil.
	say := func(words string, v any) error {
		if v != nil {
			msg, err := json.Marshal(v)
			if err != nil {
				return err
			}
			words += " " + string(msg)
		}
		if _, err := fmt.Fprintln(out, words); err != nil {
			return err
		}
		return out.Flush()
	}
	stats := func() workerStats {
		frames, writes := trial.WriteStats()
		return workerStats{trial.Stats(), frames, writes}
	}
	if err := say("READY", nil); err != nil {
		return err
	}
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		cmd, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		switch cmd {
		case "CYCLE":
			cycle, err := strconv.Atoi(rest)
			if err != nil {
				return fmt.Errorf("bad CYCLE %q", rest)
			}
			part, err := trial.Step(cycle)
			if err != nil {
				return err
			}
			err = say("POINT", part)
		case "DRAIN":
			err = say(fmt.Sprintf("DRAINED %t", trial.Drain()), stats())
		case "STATS":
			err = say("STATS", stats())
		case "EXIT":
			return nil
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			return err
		}
	}
	// Driver went away (EOF): tear down quietly.
	return sc.Err()
}

// workerProc is the driver's handle on one spawned worker. A reader
// goroutine turns the worker's stdout into lines so every wait can carry a
// deadline; it ends, closing lines, when the worker's stdout does.
type workerProc struct {
	proc  int
	cmd   *exec.Cmd
	in    *bufio.Writer
	lines chan string
	wait  time.Duration
}

func (w *workerProc) send(line string) error {
	if _, err := fmt.Fprintln(w.in, line); err != nil {
		return fmt.Errorf("worker %d: %w", w.proc, err)
	}
	return w.in.Flush()
}

// next waits, bounded, for the worker's next line; open is false once its
// stdout has closed. owed names what the worker was asked for.
func (w *workerProc) next(owed string) (line string, open bool, err error) {
	timer := time.NewTimer(w.wait)
	defer timer.Stop()
	select {
	case line, open = <-w.lines:
		return strings.TrimSpace(line), open, nil
	case <-timer.C:
		return "", false, fmt.Errorf("worker %d: no %s within %s; killing the campaign", w.proc, owed, w.wait)
	}
}

// expect reads the next protocol line and strips the required prefix.
func (w *workerProc) expect(prefix string) (string, error) {
	line, open, err := w.next(prefix + " line")
	if err != nil {
		return "", err
	}
	if !open {
		return "", fmt.Errorf("worker %d: exited early (wanted %s)", w.proc, prefix)
	}
	rest, found := strings.CutPrefix(line, prefix+" ")
	if !found && line != prefix {
		return "", fmt.Errorf("worker %d: got %q, wanted %s", w.proc, line, prefix)
	}
	return rest, nil
}

// stop kills the worker if it is still running and reaps it. The reader
// goroutine must see the pipe close before Wait may be called.
func (w *workerProc) stop() {
	w.cmd.Process.Kill()
	for range w.lines {
	}
	w.cmd.Wait()
}

// ask sends cmd to every worker, then hands each worker's reply (its
// prefix stripped) to got — one lock-step barrier of the campaign.
func ask(workers []*workerProc, cmd, reply string, got func(w *workerProc, rest string) error) error {
	for _, w := range workers {
		if err := w.send(cmd); err != nil {
			return err
		}
	}
	for _, w := range workers {
		rest, err := w.expect(reply)
		if err == nil {
			err = got(w, rest)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runDriver spawns the workers, steps the campaign cycle by cycle,
// aggregates the partial measurements, drains everyone to quiescence, and
// verifies the cross-process conservation law. args is the driver's own
// command line: the workers re-parse it, plus their role, the resolved
// period and their shard.
func runDriver(opts *options, args []string, wait time.Duration, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	p := opts.p
	workerArgs := append(slices.Clone(args), "-worker", "-period", p.Period.String(), "-proc")

	var workers []*workerProc
	defer func() {
		for _, w := range workers {
			w.stop()
		}
	}()
	for proc := 0; proc < p.Sockets.Procs; proc++ {
		cmd := exec.Command(exe, append(slices.Clone(workerArgs), strconv.Itoa(proc))...)
		// The env marker lets a test binary reroute itself into worker
		// mode; the real binary keys off -worker alone.
		cmd.Env = append(os.Environ(), "NETSIM_WORKER=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn worker %d: %w", proc, err)
		}
		w := &workerProc{proc: proc, cmd: cmd, in: bufio.NewWriter(stdin), lines: make(chan string), wait: wait}
		workers = append(workers, w)
		go func() {
			defer close(w.lines)
			sc := bufio.NewScanner(out)
			sc.Buffer(make([]byte, 64*1024), 1<<20)
			for sc.Scan() {
				w.lines <- sc.Text()
			}
		}()
	}

	for _, w := range workers {
		if _, err := w.expect("READY"); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "netsim: %d workers up (n=%d procs=%d period=%s scenario=%s)\n",
		len(workers), p.N, len(workers), p.Period, p.Scenario.Name)

	rec := experiment.NewShardRecorder(p, opts.seed)
	for cycle, stop := 0, false; cycle < p.Cycles && !stop; cycle++ {
		parts := make([]experiment.Partial, len(workers))
		err := ask(workers, "CYCLE "+strconv.Itoa(cycle), "POINT", func(w *workerProc, rest string) error {
			return json.Unmarshal([]byte(rest), &parts[w.proc])
		})
		if err == nil {
			stop, err = rec.Record(cycle, parts)
		}
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}

	// Quiesce: stop every worker's tick sources, wait for each local
	// drain, then poll the global sum until stable — frames can still be
	// crossing process boundaries when an individual worker reports
	// settled.
	err = ask(workers, "DRAIN", "DRAINED", func(w *workerProc, rest string) error {
		if ok, _, _ := strings.Cut(rest, " "); ok != "true" {
			fmt.Fprintf(stderr, "netsim: worker %d did not settle locally\n", w.proc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var sum workerStats
	for round := 0; round < 50; round++ {
		var cur workerStats
		err := ask(workers, "STATS", "STATS", func(_ *workerProc, rest string) error {
			var st workerStats
			if err := json.Unmarshal([]byte(rest), &st); err != nil {
				return err
			}
			cur.add(st)
			return nil
		})
		if err != nil {
			return err
		}
		if round > 0 && cur == sum {
			break
		}
		sum = cur
		time.Sleep(50 * time.Millisecond)
	}
	final := sum.Stats
	for _, w := range workers {
		if err := w.send("EXIT"); err != nil {
			return err
		}
	}
	for _, w := range workers {
		if line, open, err := w.next("exit"); err != nil {
			return err
		} else if open {
			return fmt.Errorf("worker %d: got %q after EXIT", w.proc, line)
		}
		if err := w.cmd.Wait(); err != nil {
			return fmt.Errorf("worker %d: %w", w.proc, err)
		}
	}
	workers = nil

	out := stdout
	if opts.out != "" {
		f, err := os.Create(opts.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	fmt.Fprintf(out, "# netsim n=%d procs=%d period=%s cycles=%d scenario=%s seed=%d drop=%g udp=%t\n",
		p.N, p.Sockets.Procs, p.Period, p.Cycles, p.Scenario.Name, opts.seed, p.Drop, p.Sockets.UDP)
	res := rec.Result()
	res.Stats = final
	fmt.Fprintf(out, "# converged_at=%d\n", res.ConvergedAt)
	if err := res.WriteCSV(out); err != nil {
		return err
	}
	conservedOK := final.Sent == final.Delivered+final.Dropped+final.Overflow
	fmt.Fprintf(out, "# netstats sent=%d delivered=%d dropped=%d overflow=%d conserved=%t\n",
		final.Sent, final.Delivered, final.Dropped, final.Overflow, conservedOK)
	// How well the socket writers coalesced: 1 is a write per message.
	fmt.Fprintf(out, "# frames_per_write=%.2f\n", float64(sum.Frames)/float64(max(sum.Writes, 1)))
	if !conservedOK {
		return fmt.Errorf("traffic counters not conserved at quiescence: %+v (diff %d)",
			final, final.Sent-final.Delivered-final.Dropped-final.Overflow)
	}
	if res.ConvergedAt < 0 {
		fmt.Fprintf(stderr, "netsim: campaign did not converge in %d cycles\n", p.Cycles)
	}
	return nil
}
