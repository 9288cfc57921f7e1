package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"-experiment", "fig4", "-n", "64, 128", "-seed", "7", "-runs", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.experiment != "fig4" || len(o.sizes) != 2 || o.sizes[0] != 64 || o.sizes[1] != 128 {
		t.Errorf("parsed %+v", o)
	}
	if o.seed != 7 || o.runs != 2 {
		t.Errorf("parsed %+v", o)
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "abc"},
		{"-sampler", "bogus"},
		{"-runs", "0"},
		{"-trials", "0"},
		{"-workers", "-1"},
		{"-experiment", "scaling", "-trials", "4"},
		{"-experiment", "fig3", "-trials", "2", "-runs", "2"},
		{"-shards", "-1"},
	}
	for _, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestTrialsOutputIndependentOfWorkers is the CLI half of the RunTrials
// determinism guarantee: the aggregated CSV for -trials T is byte-identical
// for any -workers value.
func TestTrialsOutputIndependentOfWorkers(t *testing.T) {
	render := func(workers string) string {
		var sb strings.Builder
		err := run([]string{"-experiment", "fig3", "-n", "128", "-trials", "3", "-workers", workers}, &sb)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return sb.String()
	}
	base := render("1")
	if !strings.Contains(base, "trials=3") || !strings.Contains(base, "leaf_missing_mean") {
		t.Fatalf("missing aggregate output:\n%s", base)
	}
	for _, w := range []string{"2", "4"} {
		if got := render(w); got != base {
			t.Errorf("workers=%s output differs from workers=1", w)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "nope", "-n", "64"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunFig3Small(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig3", "-n", "128"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cycle,leaf_missing") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(out, "converged_at=") {
		t.Error("missing convergence summary")
	}
}

func TestRunFig3MemStats(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig3", "-n", "128", "-memstats"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# memstats n=128 heap_alloc_bytes=") {
		t.Errorf("missing memstats header:\n%s", out)
	}
	if strings.Contains(out, "heap_alloc_bytes=0 ") {
		t.Error("memstats header reports a zero heap: capture ran after teardown")
	}
}

func TestRunTrialsMemStats(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-experiment", "fig3", "-n", "128", "-trials", "2", "-workers", "2", "-memstats",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# memstats n=128 trials=2 workers=2 heap_baseline_bytes=") {
		t.Errorf("missing campaign memstats header:\n%s", out)
	}
	if !strings.Contains(out, "heap_peak_bytes=") {
		t.Errorf("campaign memstats header lacks a peak figure:\n%s", out)
	}
	if strings.Contains(out, "heap_peak_bytes=0 ") {
		t.Error("memstats header reports a zero peak heap: samples ran after teardown")
	}
}

// TestRunFig3Sharded is the CLI half of the shard-count invariance
// guarantee: every -shards value > 1 renders byte-identical output.
// (-shards 1 output is pinned separately by TestGoldenTraceShardInvariance
// against the sequential engine.)
func TestRunFig3Sharded(t *testing.T) {
	render := func(shards string) string {
		var sb strings.Builder
		if err := run([]string{"-experiment", "fig3", "-n", "128", "-shards", shards}, &sb); err != nil {
			t.Fatalf("shards=%s: %v", shards, err)
		}
		return sb.String()
	}
	base := render("2")
	if !strings.Contains(base, "converged_at=") {
		t.Fatalf("missing convergence summary:\n%s", base)
	}
	if got := render("3"); got != base {
		t.Errorf("shards=3 output differs from shards=2")
	}
}

func TestRunFig4Small(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig4", "-n", "128"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "drop=0.20") {
		t.Error("fig4 should default to 20% drop")
	}
}

func TestRunScalingSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "scaling", "-n", "64,128", "-runs", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header comment + csv header + 4 rows
	if len(lines) != 6 {
		t.Errorf("scaling output has %d lines, want 6:\n%s", len(lines), sb.String())
	}
}

func TestRunChurnSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "churn", "-n", "64", "-cycles", "30"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "final_leaf_missing=") {
		t.Error("missing churn summary")
	}
}

func TestRunAblationSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "ablation", "-n", "64", "-cycles", "30"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, v := range []string{"full", "no_prefix_feedback", "cr=0", "cr=10", "cr=100"} {
		if !strings.Contains(out, v) {
			t.Errorf("ablation output missing variant %s", v)
		}
	}
}

func TestRunChordSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "chord", "-n", "64", "-cycles", "30"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "finger_wrong") {
		t.Error("missing chord CSV header")
	}
}

func TestRunNewscastSampler(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig3", "-n", "64", "-sampler", "newscast", "-warmup", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sampler=newscast") {
		t.Error("sampler not recorded in output")
	}
}

func TestRunMassJoinSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "massjoin", "-n", "64", "-cycles", "40"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "reconverged_at=") {
		t.Error("missing massjoin summary")
	}
}

func TestParsePaperSizes(t *testing.T) {
	o, err := parseArgs([]string{"-paper"})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1 << 14, 1 << 16, 1 << 18}
	if len(o.sizes) != 3 {
		t.Fatalf("sizes = %v", o.sizes)
	}
	for i, w := range want {
		if o.sizes[i] != w {
			t.Fatalf("sizes = %v, want %v", o.sizes, want)
		}
	}
}

// TestBootsimGolden pins the sha256 of two full CLI outputs: fig4 on the
// sharded engine with drops, and fig3 over the NEWSCAST sampler. Both are
// pure functions of the flags, so any moved draw changes the hash.
func TestBootsimGolden(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "256", "-experiment", "fig4", "-shards", "2"}, "7f81590e09fcb611653b6ca6baf06d4a53340ce88f251752ca6e04bcd56027aa"},
		{[]string{"-n", "512", "-sampler", "newscast", "-seed", "3"}, "75f106737540006b1d05d88bcde8241a86625f9dbb2f6d3e9be67b58dd0c9f16"},
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := run(c.args, &sb); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v: output sha256 = %s, want %s\n%s", c.args, got, c.want, sb.String())
		}
	}
}
