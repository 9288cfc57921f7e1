package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/host"
	"repro/internal/livenet"
)

// liveParams is the trial the live and sock campaigns share. A scenario
// disturbs the network mid-run, so under one the trial keeps measuring
// the recovery tail instead of stopping at the first perfect cycle.
func (o *options) liveParams() (experiment.LiveParams, error) {
	sc, err := livenet.ParseScenario(o.scenario)
	return experiment.LiveParams{
		N:                       o.n(),
		Config:                  o.cfg,
		Period:                  o.period,
		Cycles:                  o.cycles,
		Drop:                    o.drop,
		MinLatency:              o.latency / 4,
		MaxLatency:              o.latency,
		Scenario:                sc,
		KeepRunningAfterPerfect: sc.Schedule != nil,
		MeasureWorkers:          o.measureWorkers,
		MeasureSample:           o.measureSample,
		Sampler:                 o.sampler,
		WarmupCycles:            o.warmup,
		MemStats:                o.memstats,
	}, err
}

// runLive runs -trials seeds of the trial on the goroutine runtime over the
// in-memory link and prints a header per campaign (the fault plan of trial
// 0, per-trial summaries), then the aggregate per-cycle series in the
// format fig3 -trials prints, so the engines' campaigns plot side by side.
func runLive(o *options, out io.Writer) error {
	p, err := o.liveParams()
	if err != nil {
		return err
	}
	seeds := experiment.Seeds(o.seed, o.trials)
	start := time.Now()
	res, err := experiment.RunLiveTrials(p, seeds, o.workers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	fmt.Fprintf(out, "# livesim n=%d trials=%d workers=%d scenario=%s sampler=%s measure_sample=%d drop=%.2f latency=%s period=%s cycles=%d elapsed=%s\n",
		p.N, o.trials, res.Workers, p.Scenario.Name, p.Sampler, p.MeasureSample, p.Drop, o.latency, res.Params.Period, p.Cycles, elapsed)
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
	o.campaignMemstatsLine(out, p.N, res.Workers, res.HeapBaseline, res.HeapPeak())
	var total host.Stats
	for _, t := range res.Trials {
		total.Add(t.Stats)
	}
	fmt.Fprintf(out, "# converged_trials=%d/%d total_sent=%d total_delivered=%d total_dropped=%d total_overflow=%d\n",
		res.ConvergedTrials(), o.trials, total.Sent, total.Delivered, total.Dropped, total.Overflow)
	return res.WriteCSV(out)
}

// sockParams is the trial of the sock campaign: the live trial over
// loopback sockets, with the hosts sharded across -procs worker processes
// on a port-indexed localhost topology.
func (o *options) sockParams() (experiment.LiveParams, error) {
	p, err := o.liveParams()
	if err != nil {
		return p, err
	}
	if o.procs < 1 {
		return p, errors.New("-procs must be at least 1")
	}
	p.Sockets = &experiment.Sockets{Procs: o.procs, Proc: o.proc, BasePort: o.basePort}
	if p.Period == 0 {
		// Resolve the default here so one value reaches every worker
		// explicitly rather than each process re-deriving it.
		p.Period = experiment.DefaultLivePeriod(p.N, 1)
	}
	// The driver checks what its workers would, before it spawns any.
	return p, p.Validate()
}

// runSock runs the trial once across worker processes: each owns n/procs
// hosts behind its own TCP port, and every protocol message crosses the
// kernel through the internal/wire codec. The workers are re-runs of this
// command line with -worker -proc p, driven over a line protocol on
// stdin/stdout; their logs go to stderr. Each worker steps its shard of the
// trial (experiment.LiveShard); the driver sums the workers' exact partial
// measurements and feeds them to experiment.ShardRecorder, which owns the
// stopping rule. Injected latency (-latency, -scenario latency) is applied
// by the receiving hosts, on top of the kernel's own.
func runSock(o *options, out io.Writer) error {
	p, err := o.sockParams()
	if err != nil {
		return err
	}
	if o.worker {
		if err := runWorker(p, o.seed, os.Stdin, out); err != nil {
			return fmt.Errorf("worker %d: %w", o.proc, err)
		}
		return nil
	}
	// A worker answers a CYCLE within a period plus its measurement, and a
	// DRAIN within the drain budget; anything slower is wedged.
	return runDriver(p, o.seed, o.args, 8*p.Period+experiment.DrainBudget, out, os.Stderr)
}

// workerStats is what a worker reports of its shard: the traffic counters,
// the arrivals its hosts hold for their latency, and the frames its link
// handed to the kernel with the Write calls that carried them. The driver
// sums them field by field.
type workerStats struct {
	host.Stats
	Held           int64
	Frames, Writes int64
}

func (w *workerStats) add(o workerStats) {
	w.Stats.Add(o.Stats)
	w.Held += o.Held
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
func runWorker(p experiment.LiveParams, seed int64, stdin io.Reader, stdout io.Writer) error {
	trial, err := experiment.OpenLiveShard(p, seed)
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
		return workerStats{trial.Stats(), trial.Held(), frames, writes}
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

// settlePoll is how often settle asks for the campaign's counters.
const settlePoll = 50 * time.Millisecond

// settle polls the campaign's summed counters until two polls in a row
// agree and no arrival is held: frames can still be crossing process
// boundaries when every worker has reported its local drain, and a held
// arrival is counted Sent with no outcome yet. It gives up after budget,
// with an error naming what was still unsettled.
func settle(poll func() (workerStats, error), budget time.Duration) (workerStats, error) {
	prev, err := poll()
	if err != nil {
		return prev, err
	}
	for deadline := time.Now().Add(budget); ; {
		time.Sleep(settlePoll)
		cur, err := poll()
		if err != nil || cur == prev && cur.Held == 0 {
			return cur, err
		}
		if time.Now().After(deadline) {
			return cur, fmt.Errorf("traffic did not settle within %s: %d arrivals held, Sent − outcomes = %d",
				budget, cur.Held, cur.Sent-cur.Delivered-cur.Dropped-cur.Overflow)
		}
		prev = cur
	}
}

// runDriver spawns the workers, steps the campaign cycle by cycle,
// aggregates the partial measurements, drains everyone to quiescence, and
// verifies the cross-process conservation law ΣSent == ΣDelivered +
// ΣDropped + ΣOverflow: a non-conserved campaign fails. Every wait on a
// worker is bounded by wait: one that stops answering gets the whole
// campaign killed and an error naming it. args is the driver's own command
// line: the workers re-parse it, plus their role, the resolved period and
// their shard.
func runDriver(p experiment.LiveParams, seed int64, args []string, wait time.Duration, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
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
		cmd.Env = append(os.Environ(), "SIM_WORKER=1")
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
	fmt.Fprintf(stderr, "sim sock: %d workers up (n=%d procs=%d period=%s scenario=%s)\n",
		len(workers), p.N, len(workers), p.Period, p.Scenario.Name)

	rec := experiment.NewShardRecorder(p, seed)
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
	// drain, then settle the global sum.
	err = ask(workers, "DRAIN", "DRAINED", func(w *workerProc, rest string) error {
		if ok, _, _ := strings.Cut(rest, " "); ok != "true" {
			fmt.Fprintf(stderr, "sim sock: worker %d did not settle locally\n", w.proc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sum, err := settle(func() (workerStats, error) {
		var cur workerStats
		err := ask(workers, "STATS", "STATS", func(_ *workerProc, rest string) error {
			var st workerStats
			if err := json.Unmarshal([]byte(rest), &st); err != nil {
				return err
			}
			cur.add(st)
			return nil
		})
		return cur, err
	}, experiment.DrainBudget)
	if err != nil {
		return err
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

	fmt.Fprintf(stdout, "# netsim n=%d procs=%d period=%s cycles=%d scenario=%s seed=%d drop=%g\n",
		p.N, p.Sockets.Procs, p.Period, p.Cycles, p.Scenario.Name, seed, p.Drop)
	res := rec.Result()
	res.Stats = final
	fmt.Fprintf(stdout, "# converged_at=%d\n", res.ConvergedAt)
	if err := res.WriteCSV(stdout); err != nil {
		return err
	}
	conservedOK := final.Sent == final.Delivered+final.Dropped+final.Overflow
	fmt.Fprintf(stdout, "# netstats sent=%d delivered=%d dropped=%d overflow=%d conserved=%t\n",
		final.Sent, final.Delivered, final.Dropped, final.Overflow, conservedOK)
	// How well the socket writers coalesced: 1 is a write per message.
	fmt.Fprintf(stdout, "# frames_per_write=%.2f\n", float64(sum.Frames)/float64(max(sum.Writes, 1)))
	if !conservedOK {
		return fmt.Errorf("traffic counters not conserved at quiescence: %+v (diff %d)",
			final, final.Sent-final.Delivered-final.Dropped-final.Overflow)
	}
	if res.ConvergedAt < 0 {
		fmt.Fprintf(stderr, "sim sock: campaign did not converge in %d cycles\n", p.Cycles)
	}
	return nil
}
