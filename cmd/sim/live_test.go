package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/host"
	"repro/internal/livenet"
)

func TestLiveSimSmallCampaign(t *testing.T) {
	out := mustRun(t, "live", "-n", "48", "-trials", "2", "-workers", "2",
		"-scenario", "churn", "-cycles", "10", "-period", "5ms")
	if !strings.Contains(out, "# livesim n=48 trials=2") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "# fault plan") {
		t.Errorf("missing fault plan:\n%s", out)
	}
	if !strings.Contains(out, "cycle,trials,leaf_missing_mean") {
		t.Errorf("missing CSV header:\n%s", out)
	}
	dataLines := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "cycle,") {
			dataLines++
		}
	}
	if dataLines != 10 {
		t.Errorf("got %d aggregate rows, want 10:\n%s", dataLines, out)
	}
}

func TestLiveSimMemStats(t *testing.T) {
	out := mustRun(t, "live", "-n", "32", "-trials", "2", "-workers", "2", "-scenario", "none",
		"-cycles", "4", "-period", "5ms", "-memstats")
	if !strings.Contains(out, "# memstats n=32 trials=2 workers=2 heap_baseline_bytes=") {
		t.Errorf("missing campaign memstats header:\n%s", out)
	}
	if !strings.Contains(out, "heap_peak_bytes=") {
		t.Errorf("campaign memstats header lacks a peak figure:\n%s", out)
	}
	if strings.Contains(out, "heap_peak_bytes=0 ") {
		t.Error("memstats header reports a zero peak heap: samples ran after teardown")
	}
}

// TestSockStopsLikeLive: live and sock resolve every built-in scenario by
// name, and to the same stopping rule — a campaign under a scenario runs to -cycles.
func TestSockStopsLikeLive(t *testing.T) {
	for _, sc := range livenet.Builtins() {
		var keep []bool
		for _, c := range []struct {
			name   string
			params func(*options) (experiment.LiveParams, error)
		}{{"live", (*options).liveParams}, {"sock", (*options).sockParams}} {
			o, _, err := parse([]string{c.name, "-scenario", sc.Name}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.params(o)
			if err != nil || p.Scenario.Name != sc.Name {
				t.Fatalf("%s -scenario %s: resolved %q, err %v", c.name, sc.Name, p.Scenario.Name, err)
			}
			keep = append(keep, p.KeepRunningAfterPerfect)
		}
		if keep[0] != keep[1] || keep[0] != (sc.Schedule != nil) {
			t.Errorf("scenario %s: KeepRunningAfterPerfect live=%t sock=%t", sc.Name, keep[0], keep[1])
		}
	}
}

// TestSockSmoke runs a real two-process campaign: the in-process driver
// spawns two worker copies of this test binary, every protocol message
// crosses loopback TCP, and the emitted CSV plus the conservation footer
// are checked. This is the same path CI's sock smoke exercises.
func TestSockSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	got := mustRun(t, "sock", "-n", "48", "-procs", "2", "-cycles", "12", "-period", "15ms",
		"-scenario", "churn", "-seed", "9", "-base-port", "19500")
	if !strings.Contains(got, "cycle,trials,leaf_missing_mean") {
		t.Errorf("missing CSV header:\n%s", got)
	}
	if !strings.Contains(got, "# netsim n=48 procs=2") {
		t.Errorf("missing campaign header:\n%s", got)
	}
	if !strings.Contains(got, "conserved=true") {
		t.Errorf("traffic counters not conserved:\n%s", got)
	}
	// The writers' coalescing is reported after the counters; a campaign
	// that moved messages wrote at least one frame per write.
	var fpw float64
	if _, tail, ok := strings.Cut(got, "\n# frames_per_write="); !ok {
		t.Errorf("missing frames_per_write line:\n%s", got)
	} else if _, err := fmt.Sscanf(tail, "%f\n", &fpw); err != nil || fpw < 1 {
		t.Errorf("frames_per_write = %v (%v), want a ratio of at least 1:\n%s", fpw, err, got)
	}
	// Under a scenario the campaign measures every cycle.
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "cycle,") {
			rows++
		}
	}
	if rows != 12 {
		t.Errorf("%d data rows, want 12:\n%s", rows, got)
	}
}

// TestSockKillsWedgedWorker: a worker that stops answering must not hang
// the driver. Both workers answer READY and then nothing; the driver has to
// give up after its deadline, name the worker and the line it owed, and
// kill the children (the deferred reaping would block forever otherwise).
func TestSockKillsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	args := []string{"sock", "-n", "8", "-procs", "2", "-cycles", "3", "-period", "10ms", "-seed", wedgeSeed}
	o, _, err := parse(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	p, err := o.sockParams()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- runDriver(p, o.seed, args, 200*time.Millisecond, io.Discard, io.Discard) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cycle 0: worker 0: no POINT line within 200ms") {
			t.Fatalf("driver error = %v, want the wedged worker and the line it owed", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("driver still waiting on a wedged worker")
	}
}

// TestSockSettle drives the driver's settle loop with fake polls: one
// campaign settles once its held arrival lands, and one never does and is
// reported as unsettled, naming what is held and what has no outcome yet.
func TestSockSettle(t *testing.T) {
	sent := host.Stats{Sent: 10, Delivered: 7, Dropped: 1}
	landed := host.Stats{Sent: 10, Delivered: 9, Dropped: 1}
	polls := 0
	st, err := settle(func() (workerStats, error) {
		if polls++; polls < 3 {
			return workerStats{Stats: sent, Held: 2}, nil
		}
		return workerStats{Stats: landed}, nil
	}, time.Second)
	if err != nil || st.Stats != landed || polls != 4 {
		t.Errorf("settling campaign: %+v after %d polls, err %v; want %+v after 4", st, polls, err, landed)
	}

	polls = 0
	_, err = settle(func() (workerStats, error) {
		polls++
		return workerStats{Stats: sent, Held: 2}, nil
	}, 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "did not settle within 100ms: 2 arrivals held, Sent − outcomes = 2") {
		t.Errorf("unsettled campaign: err %v, want one naming the held arrivals and the missing outcomes", err)
	}
	if polls > 5 {
		t.Errorf("unsettled campaign polled %d times in a 100ms budget", polls)
	}
}
