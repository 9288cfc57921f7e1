package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestBootTrialsIndependentOfWorkers is the CLI half of the RunTrials
// determinism guarantee: the output of -trials T is byte-identical for any
// -workers value, aggregated (fig3) or one row per trial (scaling).
func TestBootTrialsIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct{ campaign, want string }{
		{"fig3", "leaf_missing_mean"},
		{"scaling", "\n128,2,"},
	} {
		base := mustRun(t, c.campaign, "-n", "128", "-trials", "3", "-workers", "1")
		if !strings.Contains(base, c.want) {
			t.Fatalf("%s: output lacks %q:\n%s", c.campaign, c.want, base)
		}
		for _, w := range []string{"2", "4"} {
			if got := mustRun(t, c.campaign, "-n", "128", "-trials", "3", "-workers", w); got != base {
				t.Errorf("%s: workers=%s output differs from workers=1", c.campaign, w)
			}
		}
	}
}

// TestBootTrialLinesMatchSingleRuns: each trial line of fig3 -trials
// reports what fig3 -seed <that trial's seed> reports of its one run.
func TestBootTrialLinesMatchSingleRuns(t *testing.T) {
	trials := 0
	for _, line := range strings.Split(mustRun(t, "fig3", "-n", "128", "-trials", "3"), "\n") {
		var n, i, at int
		var seed, sent, dropped int64
		if _, err := fmt.Sscanf(line, "# n=%d trial=%d seed=%d converged_at=%d sent=%d dropped=%d",
			&n, &i, &seed, &at, &sent, &dropped); err != nil {
			continue
		}
		if want := 42 + int64(i)*7919; seed != want {
			t.Errorf("trial %d: seed %d, want %d", i, seed, want)
		}
		single := mustRun(t, "fig3", "-n", "128", "-seed", strconv.FormatInt(seed, 10))
		if want := fmt.Sprintf("# n=128 run=0 converged_at=%d sent=%d dropped=%d\n", at, sent, dropped); !strings.Contains(single, want) {
			t.Errorf("trial %d: %q, but the seed's one run prints\n%s", i, line, single)
		}
		trials++
	}
	if trials != 3 {
		t.Errorf("%d trial lines, want 3", trials)
	}
}

func TestBootFig3Small(t *testing.T) {
	out := mustRun(t, "fig3", "-n", "128")
	if !strings.Contains(out, "cycle,leaf_missing") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(out, "converged_at=") {
		t.Error("missing convergence summary")
	}
}

func TestBootFig3MemStats(t *testing.T) {
	out := mustRun(t, "fig3", "-n", "128", "-memstats")
	if !strings.Contains(out, "# memstats n=128 heap_alloc_bytes=") {
		t.Errorf("missing memstats header:\n%s", out)
	}
	if strings.Contains(out, "heap_alloc_bytes=0 ") {
		t.Error("memstats header reports a zero heap: capture ran after teardown")
	}
}

func TestBootTrialsMemStats(t *testing.T) {
	out := mustRun(t, "fig3", "-n", "128", "-trials", "2", "-workers", "2", "-memstats")
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

// TestBootFig3Sharded is the CLI half of the shard-count invariance
// guarantee: every -shards value > 1 renders byte-identical output.
// (-shards 1 output is pinned separately by TestGoldenTraceShardInvariance
// against the sequential engine.)
func TestBootFig3Sharded(t *testing.T) {
	base := mustRun(t, "fig3", "-n", "128", "-shards", "2")
	if !strings.Contains(base, "converged_at=") {
		t.Fatalf("missing convergence summary:\n%s", base)
	}
	if got := mustRun(t, "fig3", "-n", "128", "-shards", "3"); got != base {
		t.Errorf("shards=3 output differs from shards=2")
	}
}

func TestBootFig4Small(t *testing.T) {
	if !strings.Contains(mustRun(t, "fig4", "-n", "128"), "drop=0.20") {
		t.Error("fig4 should default to 20% drop")
	}
}

// TestBootFig3Drop: fig3 honours -drop; it used to print drop=0.00 and
// run without drops whatever the flag said.
func TestBootFig3Drop(t *testing.T) {
	out := mustRun(t, "fig3", "-n", "128", "-drop", "0.2", "-cycles", "60")
	if !strings.Contains(out, "# experiment=fig3 (no failures) sampler=oracle drop=0.20 ") {
		t.Fatalf("fig3 ignored -drop:\n%s", out)
	}
	fig4 := mustRun(t, "fig4", "-n", "128")
	if _, rest, _ := strings.Cut(out, "\n"); !strings.HasSuffix(fig4, rest) {
		t.Error("fig3 -drop 0.2 -cycles 60 and fig4 ran different trials")
	}
}

// TestBootScalingGolden pins scaling's rows, one per size and trial: the
// bytes -runs 2 printed before -trials took its place.
func TestBootScalingGolden(t *testing.T) {
	out := mustRun(t, "scaling", "-n", "64,128", "-trials", "2")
	const want = "7f18d400c8e6b0b6ee60559ff3789fc212c7493f909a83982f1fd4f14cf0aeb1"
	if got := sha256Of(out); got != want {
		t.Errorf("output sha256 = %s, want %s\n%s", got, want, out)
	}
}

func TestBootChurnSmall(t *testing.T) {
	if !strings.Contains(mustRun(t, "churn", "-n", "64", "-cycles", "30"), "final_leaf_missing=") {
		t.Error("missing churn summary")
	}
}

func TestBootAblationSmall(t *testing.T) {
	out := mustRun(t, "ablation", "-n", "64", "-cycles", "30")
	for _, v := range []string{"full", "no_prefix_feedback", "cr=0", "cr=10", "cr=100"} {
		if !strings.Contains(out, v) {
			t.Errorf("ablation output missing variant %s", v)
		}
	}
}

// TestBootChordSmall: small rings converge. The 64-node ring at seeds 42,
// 6 and 8: when messages shipped the C entries closest to the receiver by
// ring distance, not the C/2 per side its leaf set keeps, each of these
// seeds kept one leaf entry missing for 40 cycles. The 24- and 22-node
// rings hold fewer than 2C members, where a leaf set splits its neighbours
// at the antipode rather than C/2 per side; measured against ring
// positions ±1…±C/2 instead of the perfect leaf set, they never read
// converged.
func TestBootChordSmall(t *testing.T) {
	for _, c := range []struct{ n, cycles, seed string }{
		{"64", "40", "42"}, {"64", "40", "6"}, {"64", "40", "8"},
		{"24", "30", "3"}, {"22", "30", "42"},
	} {
		out := mustRun(t, "chord", "-n", c.n, "-cycles", c.cycles, "-seed", c.seed)
		if !strings.Contains(out, "finger_wrong") {
			t.Errorf("n %s seed %s: missing chord CSV header", c.n, c.seed)
		}
		_, at, _ := strings.Cut(out, "# n="+c.n+" converged_at=")
		if at, err := strconv.Atoi(strings.TrimSpace(at)); err != nil || at < 0 {
			t.Errorf("n %s seed %s: converged_at = %v (%v), want >= 0:\n%s", c.n, c.seed, at, err, out)
		}
	}
}

// TestBootChordFingersConverge: sim chord runs Chord's fix_fingers lookups.
// Gossip alone still leaves fingers inexact after 30 cycles at this size;
// with the lookups every finger is exact by cycle 9 at seed 42.
func TestBootChordFingersConverge(t *testing.T) {
	out := mustRun(t, "chord", "-n", "512", "-cycles", "30")
	for _, line := range strings.Split(out, "\n") {
		f := strings.Split(line, ",") // n,cycle,finger_wrong,leaf_missing,sent
		if len(f) == 5 && f[0] == "512" {
			if wrong, err := strconv.ParseFloat(f[2], 64); err == nil && wrong == 0 {
				return
			}
		}
	}
	t.Errorf("no cycle with finger_wrong = 0:\n%s", out)
}

func TestBootNewscastSampler(t *testing.T) {
	if !strings.Contains(mustRun(t, "fig3", "-n", "64", "-sampler", "newscast", "-warmup", "5"), "sampler=newscast") {
		t.Error("sampler not recorded in output")
	}
}

func TestBootMassJoinSmall(t *testing.T) {
	if !strings.Contains(mustRun(t, "massjoin", "-n", "64", "-cycles", "40"), "reconverged_at=") {
		t.Error("missing massjoin summary")
	}
}

// TestBootsimGolden pins the sha256 of three full outputs: fig4 on the
// sharded engine with drops, fig3 over the NEWSCAST sampler, and the Chord
// baseline measured against the same ground truth. All are pure functions
// of the flags, so any moved draw changes the hash. It also checks that
// fig4 over the NEWSCAST sampler prints the same bytes on the sharded and
// the sequential engine.
func TestBootsimGolden(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"fig4", "-n", "256", "-shards", "2"}, "684ba4d53701e8c9e1998243269679d256005820f467ee8d4abfe6a5a0ae53dc"},
		{[]string{"fig3", "-n", "512", "-sampler", "newscast", "-seed", "3"}, "75f106737540006b1d05d88bcde8241a86625f9dbb2f6d3e9be67b58dd0c9f16"},
		{[]string{"chord", "-n", "512", "-cycles", "30"}, "746f4e5e83459d23bd1ffca1cb65a0957e9ba477e069262935857a7b44f15568"},
	} {
		out := mustRun(t, c.args...)
		if got := sha256Of(out); got != c.want {
			t.Errorf("%v: output sha256 = %s, want %s\n%s", c.args, got, c.want, out)
		}
	}
	seq := mustRun(t, "fig4", "-n", "256", "-sampler", "newscast", "-shards", "0")
	if got := mustRun(t, "fig4", "-n", "256", "-sampler", "newscast", "-shards", "2"); got != seq {
		t.Errorf("fig4 -sampler newscast: -shards 2 output differs from -shards 0:\n%s\nwant\n%s", got, seq)
	}
}
