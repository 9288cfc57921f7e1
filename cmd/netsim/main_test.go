package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/livenet"
)

// wedgeSeed is the -seed value that makes a rerouted worker play dead:
// it answers READY and then nothing, not even EOF.
const wedgeSeed = "-424242"

// TestMain reroutes the test binary into worker mode when the driver
// (running inside a test) re-execs it: os.Executable() is the test binary
// itself, so the NETSIM_WORKER marker distinguishes a worker spawn from a
// normal `go test` invocation.
func TestMain(m *testing.M) {
	if os.Getenv("NETSIM_WORKER") == "1" {
		if slices.Contains(os.Args, wedgeSeed) {
			fmt.Println("READY")
			select {}
		}
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestParseArgs(t *testing.T) {
	opts, err := parseArgs([]string{"-n", "64", "-procs", "3", "-scenario", "partition"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.p.N != 64 || opts.p.Sockets.Procs != 3 || opts.p.Scenario.Name != "partition" {
		t.Fatalf("parsed %+v", opts.p)
	}
	if opts.p.Period == 0 {
		t.Fatal("default period not resolved")
	}
	// One parser for every campaign CLI: each built-in resolves by name.
	// (Latency parses too; the worker's plan expansion is what rejects it.)
	for _, sc := range livenet.Builtins() {
		if got, err := parseArgs([]string{"-scenario", sc.Name}); err != nil || got.p.Scenario.Name != sc.Name {
			t.Fatalf("scenario %q: parsed %+v, err %v", sc.Name, got, err)
		}
	}
	if _, err := parseArgs([]string{"-scenario", "meteor"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := parseArgs([]string{"-procs", "0"}); err == nil {
		t.Fatal("zero procs accepted")
	}
}

// TestNetsimSmoke runs a real two-process campaign: the in-process driver
// spawns two worker copies of this test binary, every protocol message
// crosses loopback TCP, and the emitted CSV plus the conservation footer
// are checked. This is the same path CI's netsim smoke exercises.
func TestNetsimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	var out bytes.Buffer
	args := []string{
		"-n", "48", "-procs", "2", "-cycles", "12", "-period", "15ms",
		"-scenario", "churn", "-seed", "9", "-base-port", "19500",
	}
	if code := run(args, &out, os.Stderr); code != 0 {
		t.Fatalf("netsim exited %d\noutput:\n%s", code, out.String())
	}
	got := out.String()
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
	// At least one data row beyond the header.
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "cycle,") {
			rows++
		}
	}
	if rows == 0 {
		t.Errorf("no data rows emitted:\n%s", got)
	}
}

// TestDriverKillsWedgedWorker: a worker that stops answering must not hang
// the driver. Both workers answer READY and then nothing; the driver has to
// give up after its deadline, name the worker and the line it owed, and
// kill the children (the deferred reaping would block forever otherwise).
func TestDriverKillsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	args := []string{"-n", "8", "-procs", "2", "-cycles", "3", "-period", "10ms", "-seed", wedgeSeed}
	opts, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- runDriver(opts, args, 200*time.Millisecond, io.Discard, io.Discard) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cycle 0: worker 0: no POINT line within 200ms") {
			t.Fatalf("driver error = %v, want the wedged worker and the line it owed", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("driver still waiting on a wedged worker")
	}
}
