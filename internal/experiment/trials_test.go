package experiment

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func trialParams(n int) Params {
	return Params{N: n, Config: core.DefaultConfig(), MaxCycles: 40}
}

func TestSeeds(t *testing.T) {
	s := Seeds(42, 3)
	want := []int64{42, 42 + 7919, 42 + 2*7919}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("Seeds = %v, want %v", s, want)
	}
}

// TestRunTrialsIndependentOfWorkers is the acceptance property of the
// parallel runner: trial results and aggregates are a pure function of the
// seeds, not of the worker count or scheduling.
func TestRunTrialsIndependentOfWorkers(t *testing.T) {
	seeds := Seeds(42, 4)
	var baseline *TrialsResult
	for _, workers := range []int{1, 2, 7} {
		res, err := RunTrials(trialParams(128), seeds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if !reflect.DeepEqual(res.Agg, baseline.Agg) {
			t.Errorf("workers=%d: aggregate series diverged from workers=1", workers)
		}
		for i := range res.Trials {
			if res.Trials[i].ConvergedAt != baseline.Trials[i].ConvergedAt {
				t.Errorf("workers=%d trial %d: ConvergedAt = %d, want %d",
					workers, i, res.Trials[i].ConvergedAt, baseline.Trials[i].ConvergedAt)
			}
			if res.Trials[i].Stats != baseline.Trials[i].Stats {
				t.Errorf("workers=%d trial %d: stats diverged", workers, i)
			}
		}
	}
}

// TestRunTrialsMatchesSingleRuns checks each trial equals a standalone Run
// with the same seed — the pool adds concurrency, never coupling.
func TestRunTrialsMatchesSingleRuns(t *testing.T) {
	seeds := Seeds(7, 3)
	res, err := RunTrials(trialParams(128), seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		p := trialParams(128)
		p.Seed = seed
		solo, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials[i].ConvergedAt != solo.ConvergedAt || res.Trials[i].Stats != solo.Stats {
			t.Errorf("trial %d (seed %d) diverged from standalone run", i, seed)
		}
	}
}

func TestRunTrialsAggregateInvariants(t *testing.T) {
	res, err := RunTrials(trialParams(128), Seeds(1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agg) == 0 {
		t.Fatal("empty aggregate series")
	}
	for _, a := range res.Agg {
		if a.Trials != 3 {
			t.Errorf("cycle %d: trials = %d, want 3", a.Cycle, a.Trials)
		}
		if a.LeafMin > a.LeafMean || a.LeafMean > a.LeafMax {
			t.Errorf("cycle %d: leaf min/mean/max out of order: %+v", a.Cycle, a)
		}
		if a.PrefixMin > a.PrefixMean || a.PrefixMean > a.PrefixMax {
			t.Errorf("cycle %d: prefix min/mean/max out of order: %+v", a.Cycle, a)
		}
		if a.ConvergedFrac < 0 || a.ConvergedFrac > 1 {
			t.Errorf("cycle %d: converged frac %v out of [0,1]", a.Cycle, a.ConvergedFrac)
		}
	}
	last := res.Agg[len(res.Agg)-1]
	if res.ConvergedTrials() == 3 && last.ConvergedFrac != 1 {
		t.Errorf("all trials converged but final frac = %v", last.ConvergedFrac)
	}
}

// TestRunTrialsMemCampaign checks the campaign heap accounting: a baseline
// is read before the trials, every trial samples its HeapBytes, the
// campaign peak is the largest of them (never below the baseline), and the
// resolved worker count is reported.
func TestRunTrialsMemCampaign(t *testing.T) {
	p := trialParams(128)
	p.MemStats = true
	res, err := RunTrials(p, Seeds(11, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("resolved Workers = %d, want 2", res.Workers)
	}
	if res.HeapBaseline == 0 {
		t.Error("campaign baseline is 0")
	}
	peak := res.HeapBaseline
	for i, tr := range res.Trials {
		if tr.HeapBytes == 0 {
			t.Errorf("trial %d: HeapBytes not sampled under MemStats", i)
		}
		peak = max(peak, tr.HeapBytes)
	}
	if got := res.HeapPeak(); got != peak {
		t.Errorf("campaign peak %d, want %d (the largest of baseline and trial samples)", got, peak)
	}

	p.MemStats = false
	res, err = RunTrials(p, Seeds(11, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeapBaseline != 0 || res.HeapPeak() != 0 {
		t.Errorf("heap read without MemStats: baseline %d, peak %d", res.HeapBaseline, res.HeapPeak())
	}
	if res.Workers != 2 {
		t.Errorf("resolved Workers = %d, want 2 (clamped to the trial count)", res.Workers)
	}
}

func TestRunTrialsErrors(t *testing.T) {
	if _, err := RunTrials(trialParams(128), nil, 1); err == nil {
		t.Error("no seeds accepted")
	}
	bad := trialParams(1) // N < 2 fails validation
	if _, err := RunTrials(bad, Seeds(1, 2), 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestTrialsWriteCSV(t *testing.T) {
	res, err := RunTrials(trialParams(128), Seeds(3, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(res.Agg)+1 {
		t.Fatalf("%d CSV lines for %d aggregate points", len(lines), len(res.Agg))
	}
	if !strings.HasPrefix(lines[0], "cycle,trials,leaf_missing_mean") {
		t.Errorf("unexpected header %q", lines[0])
	}
}
