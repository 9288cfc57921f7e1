package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func smallParams(n int, seed int64) Params {
	return Params{
		N:         n,
		Seed:      seed,
		Config:    core.DefaultConfig(),
		MaxCycles: 40,
	}
}

func TestValidate(t *testing.T) {
	if err := smallParams(10, 1).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{N: 1, Config: core.DefaultConfig(), MaxCycles: 10},
		{N: 10, Config: core.DefaultConfig(), MaxCycles: 0},
		{N: 10, Config: core.DefaultConfig(), MaxCycles: 10, Drop: 1.0},
		{N: 10, Config: core.DefaultConfig(), MaxCycles: 10, Drop: -0.1},
		{N: 10, Config: core.Config{}, MaxCycles: 10},
		{N: 10, Config: core.DefaultConfig(), MaxCycles: 10, Churn: Churn{Rate: 2}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestParseSampler(t *testing.T) {
	if s, err := ParseSampler("oracle"); err != nil || s != SamplerOracle {
		t.Error("oracle parse failed")
	}
	if s, err := ParseSampler("newscast"); err != nil || s != SamplerNewscast {
		t.Error("newscast parse failed")
	}
	if _, err := ParseSampler("bogus"); err == nil {
		t.Error("bogus sampler accepted")
	}
	if SamplerOracle.String() != "oracle" || SamplerNewscast.String() != "newscast" {
		t.Error("String mismatch")
	}
	if SamplerKind(0).String() != "unknown" {
		t.Error("zero SamplerKind should print unknown")
	}
}

// TestConvergesNoFailures is the miniature of Figure 3: a few hundred nodes
// converge to perfect leaf sets and prefix tables in well under 30 cycles.
func TestConvergesNoFailures(t *testing.T) {
	res, err := Run(smallParams(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("no convergence within %d cycles; final %+v", res.Params.MaxCycles, res.Final())
	}
	if res.ConvergedAt > 25 {
		t.Errorf("converged at cycle %d, expected well under 25 at N=256", res.ConvergedAt)
	}
	final := res.Final()
	if final.LeafMissing != 0 || final.PrefixMissing != 0 {
		t.Errorf("final point not perfect: %+v", final)
	}
	if final.LeafPerfect != 256 || final.PrefixPerfect != 256 {
		t.Errorf("perfect node counts %d/%d, want 256/256", final.LeafPerfect, final.PrefixPerfect)
	}
}

// TestMonotoneImprovement: missing proportions must decay (roughly)
// monotonically in a failure-free run.
func TestMonotoneImprovement(t *testing.T) {
	res, err := Run(smallParams(128, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].LeafMissing > res.Points[i-1].LeafMissing+1e-12 {
			t.Errorf("leaf missing increased at cycle %d: %v -> %v",
				i, res.Points[i-1].LeafMissing, res.Points[i].LeafMissing)
		}
		if res.Points[i].PrefixMissing > res.Points[i-1].PrefixMissing+1e-12 {
			t.Errorf("prefix missing increased at cycle %d: %v -> %v",
				i, res.Points[i-1].PrefixMissing, res.Points[i].PrefixMissing)
		}
	}
}

// TestConvergesUnderDrop is the miniature of Figure 4: with 20% uniform
// message drop convergence still completes, only slower.
func TestConvergesUnderDrop(t *testing.T) {
	clean, err := Run(smallParams(192, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(192, 3)
	p.Drop = 0.2
	p.MaxCycles = 60
	lossy, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.ConvergedAt < 0 {
		t.Fatalf("no convergence under 20%% drop; final %+v", lossy.Final())
	}
	if lossy.ConvergedAt < clean.ConvergedAt {
		t.Errorf("lossy run converged faster (%d) than clean (%d)?", lossy.ConvergedAt, clean.ConvergedAt)
	}
	// The paper: convergence is slowed proportionally, not broken.
	if lossy.ConvergedAt > clean.ConvergedAt*3 {
		t.Errorf("lossy convergence %d too slow vs clean %d", lossy.ConvergedAt, clean.ConvergedAt)
	}
}

// TestPairLoss reproduces the Section 5 analysis of message loss: at drop
// rate p = 0.2, with request/answer pairs, 28 % of the intended traffic is
// lost, since a dropped request also suppresses its answer
// (1 - (1-p)^2 / 2 - (1-p)/2 = p + p(1-p)/2 = 0.28). Each of R requests
// intends 2 messages, and Sent counts (2-p) of them per request, so
// R = Sent/(2-p). The lost messages are the dropped ones plus the 2R - Sent
// answers never sent; messages still in flight when the run stops are not
// lost.
func TestPairLoss(t *testing.T) {
	const p = 0.2
	params := smallParams(512, 4000)
	params.Drop = p
	params.MaxCycles = 60
	res, err := Run(params)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	requests := float64(st.Sent) / (2 - p)
	loss := (float64(st.Dropped) + 2*requests - float64(st.Sent)) / (2 * requests)
	if math.Abs(loss-0.28) > 0.01 {
		t.Errorf("message loss %.4f, want 0.28 +- 0.01 (stats %+v)", loss, st)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(smallParams(96, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallParams(96, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.ConvergedAt != b.ConvergedAt || len(a.Points) != len(b.Points) {
		t.Fatalf("runs diverged: %d/%d cycles vs %d/%d", a.ConvergedAt, len(a.Points), b.ConvergedAt, len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d diverged: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
	c, err := Run(smallParams(96, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats == a.Stats {
		t.Error("different seeds produced identical traffic, suspicious")
	}
}

// TestNewscastShardInvariance runs the two-layer stack on the sharded
// engine, where a pooled NEWSCAST message is filled on its sender's shard,
// read on its receiver's and recycled there for any shard's next send.
// With the NEWSCAST sampler the harness shares no stream between nodes, so
// Shards 2 and 3 must reproduce the sequential run byte for byte; under
// -race it is the test that watches the hand-over.
func TestNewscastShardInvariance(t *testing.T) {
	csv := func(shards int) string {
		p := smallParams(256, 6)
		p.Sampler = SamplerNewscast
		p.WarmupCycles = 5
		p.MaxCycles = 20
		p.Shards = shards
		res, err := Run(p)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.ConvergedAt < 0 {
			t.Errorf("shards=%d: did not converge; final %+v", shards, res.Final())
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := csv(0)
	for _, shards := range []int{2, 3} {
		if got := csv(shards); got != seq {
			t.Errorf("shards=%d CSV differs from the sequential run:\n%s\nwant\n%s", shards, got, seq)
		}
	}
}

// TestNewscastSampler runs the full two-layer stack: NEWSCAST warms up,
// then bootstrap runs over it.
func TestNewscastSampler(t *testing.T) {
	p := smallParams(128, 4)
	p.Sampler = SamplerNewscast
	p.WarmupCycles = 10
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("two-layer stack did not converge; final %+v", res.Final())
	}
}

// TestChurnRecovery: churn during cycles 2-8. The paper's protocol has no
// liveness detection (it is designed to complete within a short window), so
// descriptors of departed nodes linger and full perfection is not
// guaranteed; the claim is that quality stays comparable to ordinary DHT
// maintenance under churn. We assert the damage is bounded and that the
// structures substantially converge after churn stops.
func TestChurnRecovery(t *testing.T) {
	p := smallParams(128, 5)
	p.MaxCycles = 60
	p.KeepRunningAfterPerfect = true
	p.Churn = Churn{Rate: 0.02, StartCycle: 2, StopCycle: 8}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final.Alive != 128 {
		t.Errorf("alive = %d, want 128 (replacement churn keeps N constant)", final.Alive)
	}
	if final.LeafMissing > 0.15 {
		t.Errorf("leaf missing %.3f after churn stopped, want < 0.15", final.LeafMissing)
	}
	// Slots filled by now-departed nodes cannot be reclaimed without a
	// failure detector, so the residual is bounded by the cumulative
	// churn volume (6 cycles x 2% = 12% of membership replaced).
	if final.PrefixMissing > 0.12 {
		t.Errorf("prefix missing %.3f after churn stopped, want < cumulative churn 0.12", final.PrefixMissing)
	}
	// Quality must improve after churn stops.
	during := res.Points[7]
	if final.LeafMissing > during.LeafMissing {
		t.Errorf("leaf missing did not improve after churn: %.3f -> %.3f", during.LeafMissing, final.LeafMissing)
	}
}

// TestAblationFeedbackSlower: without prefix feedback the prefix tables
// must converge strictly slower (or not at all within budget) — the
// paper's "mutually boost each other" claim.
func TestAblationFeedbackSlower(t *testing.T) {
	full, err := Run(smallParams(256, 6))
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(256, 6)
	p.Config.DisablePrefixFeedback = true
	p.MaxCycles = full.Params.MaxCycles
	ablated, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	fullAt := full.ConvergedAt
	ablatedAt := ablated.ConvergedAt
	if ablatedAt >= 0 && ablatedAt <= fullAt {
		t.Errorf("ablated protocol converged at %d, full at %d — feedback gave no benefit", ablatedAt, fullAt)
	}
}

func TestWriteCSV(t *testing.T) {
	res, err := Run(smallParams(64, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Points)+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), len(res.Points)+1)
	}
	if !strings.HasPrefix(lines[0], "cycle,leaf_missing") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], "0.000000e+00") {
		t.Errorf("final row should contain zeros: %q", lines[len(lines)-1])
	}
}

func TestKeepRunningAfterPerfect(t *testing.T) {
	p := smallParams(64, 10)
	p.MaxCycles = 30
	p.KeepRunningAfterPerfect = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 30 {
		t.Errorf("points = %d, want 30 (run to MaxCycles)", len(res.Points))
	}
	if res.ConvergedAt < 0 {
		t.Error("should still record convergence cycle")
	}
	// Perfection must be stable in a failure-free network.
	for _, pt := range res.Points[res.ConvergedAt:] {
		if pt.LeafMissing != 0 || pt.PrefixMissing != 0 {
			t.Errorf("perfection regressed at cycle %d: %+v", pt.Cycle, pt)
		}
	}
}

func TestFinalEmpty(t *testing.T) {
	var res Result
	if res.Final() != (Point{}) {
		t.Error("empty result should yield zero point")
	}
}

// TestChordBaselineRun exercises the Chord baseline runner (ablation A3).
func TestChordBaselineRun(t *testing.T) {
	res, err := RunChord(ChordParams{
		N:         128,
		Seed:      11,
		Config:    core.DefaultConfig(),
		MaxCycles: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("chord baseline did not converge; final %+v", res.Points[len(res.Points)-1])
	}
	// Finger error must decay monotonically in a failure-free run.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].FingerWrong > res.Points[i-1].FingerWrong+1e-12 {
			t.Errorf("finger error increased at cycle %d", i)
		}
	}
}

func TestChordBaselineValidation(t *testing.T) {
	if _, err := RunChord(ChordParams{N: 10, Config: core.Config{}, MaxCycles: 5}); err == nil {
		t.Error("invalid chord config accepted")
	}
}

// TestMessageSizeBounded validates the paper's cost claim: messages are
// the c closest entries plus a prefix part "bounded by the size of the
// full prefix table, and usually ... smaller in practice". The mean
// message size must sit far below the hard bound c + tableCapacity + 1.
func TestMessageSizeBounded(t *testing.T) {
	p := smallParams(256, 12)
	p.KeepRunningAfterPerfect = true
	p.MaxCycles = 30
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	mean := float64(final.WireUnits) / float64(final.Sent)
	cfg := p.Config
	hardBound := float64(cfg.C + cfg.TableCapacity() + 1)
	if mean >= hardBound {
		t.Fatalf("mean message size %.1f exceeds hard bound %.1f", mean, hardBound)
	}
	// "Usually much smaller": the union is leaf + cr samples + table
	// (~250 at this N), not the 789-entry worst case.
	if mean > hardBound/2 {
		t.Errorf("mean message size %.1f not 'much smaller' than bound %.1f", mean, hardBound)
	}
	if mean < float64(cfg.C) {
		t.Errorf("mean message size %.1f below c=%d — messages suspiciously empty", mean, cfg.C)
	}
	t.Logf("mean message size: %.1f descriptor units (bound %.0f)", mean, hardBound)
}

// TestConvergesWithLatency: the paper's cycle model assumes messages
// arrive within the Δ they were sent in. With latencies up to a full Δ
// (answers often land one cycle late), the protocol must still converge.
// simnet delivers every message one instant after it is sent, so the
// latency comes from livenet's link: 20–100 % of the period.
func TestConvergesWithLatency(t *testing.T) {
	p := quickLiveParams(64, 40)
	p.Period = 20 * time.Millisecond
	p.MinLatency, p.MaxLatency = p.Period/5, p.Period
	res, err := RunLive(p, 61)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("no convergence in 40 cycles with latency up to one period: final %+v", res.Final())
	}
}
