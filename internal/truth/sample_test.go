package truth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
)

// sampleWorld builds a membership with deliberately imperfect, per-node
// heterogeneous structures: node i's leaf set and prefix table are filled
// from a window of the descriptor ring, so missing fractions vary across
// nodes — the variance the estimator has to cope with.
func sampleWorld(t testing.TB, n int) (*Truth, []Member) {
	t.Helper()
	cfg := core.DefaultConfig()
	ids := id.Unique(n, 7)
	descs := make([]peer.Descriptor, n)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	tr, err := New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]Member, n)
	for i := range members {
		ls := core.NewLeafSet(ids[i], cfg.C)
		// Window size varies with i so leaf quality is heterogeneous.
		w := 10 + i%30
		lo := i % (n - w)
		ls.Update(descs[lo : lo+w])
		pt := core.NewPrefixTable(ids[i], cfg.B, cfg.K)
		pw := 32 + (i*13)%128
		start := (i * 131) % (n - pw)
		pt.AddAll(descs[start : start+pw])
		members[i] = Member{Self: ids[i], Leaf: ls, Table: pt}
	}
	return tr, members
}

func TestMeasureSampleExactFallback(t *testing.T) {
	tr, members := sampleWorld(t, 512)
	exact := tr.MeasureAll(members, 2)
	for _, s := range []int{0, len(members), len(members) + 10} {
		sa := tr.MeasureSampleConf(members, s, 0.95, rand.New(rand.NewSource(1)), 2)
		if !sa.Exact {
			t.Fatalf("sampleSize=%d: want exact fallback", s)
		}
		if sa.Sums != exact {
			t.Fatalf("sampleSize=%d: Sums = %+v, want %+v", s, sa.Sums, exact)
		}
		if sa.LeafMissing.CI != 0 || sa.PrefixMissing.CI != 0 {
			t.Fatalf("sampleSize=%d: exact fallback must have zero CI", s)
		}
		wantLeaf := float64(exact.LeafMissing) / float64(exact.LeafTotal)
		if sa.LeafMissing.Mean != wantLeaf {
			t.Fatalf("sampleSize=%d: leaf mean %v, want %v", s, sa.LeafMissing.Mean, wantLeaf)
		}
	}
}

// TestMeasureSampleWorkerInvariance pins the bit-identity contract: the
// sample is drawn before sharding and every accumulation is integral, so
// the SampleAggregate — floats included — is identical for every worker
// count.
func TestMeasureSampleWorkerInvariance(t *testing.T) {
	tr, members := sampleWorld(t, 1024)
	var ref SampleAggregate
	for i, workers := range []int{1, 2, 3, 4, 7} {
		sa := tr.MeasureSampleConf(members, 200, 0.95, rand.New(rand.NewSource(42)), workers)
		if i == 0 {
			ref = sa
			continue
		}
		if sa != ref {
			t.Fatalf("workers=%d diverged: %+v != %+v", workers, sa, ref)
		}
	}
}

func TestMeasureSampleDeterministic(t *testing.T) {
	tr, members := sampleWorld(t, 1024)
	a := tr.MeasureSampleConf(members, 128, 0.95, rand.New(rand.NewSource(9)), 2)
	b := tr.MeasureSampleConf(members, 128, 0.95, rand.New(rand.NewSource(9)), 4)
	if a != b {
		t.Fatalf("same seed diverged: %+v != %+v", a, b)
	}
	c := tr.MeasureSampleConf(members, 128, 0.95, rand.New(rand.NewSource(10)), 2)
	if a == c {
		t.Fatal("different seeds produced identical samples (suspicious)")
	}
}

// TestMeasureSampleEstimatesNearExact checks the estimator is in the right
// neighbourhood: a single draw from a deliberately heavy-tailed synthetic
// world must land within twice its own (non-degenerate) confidence
// interval of the exact value. The statistical claim proper — ≥ 93/100
// draws inside 1× CI on realistic protocol state — is the coverage
// regression in internal/experiment.
func TestMeasureSampleEstimatesNearExact(t *testing.T) {
	tr, members := sampleWorld(t, 2048)
	exact := tr.MeasureAll(members, 2)
	exactLeaf := float64(exact.LeafMissing) / float64(exact.LeafTotal)
	exactPrefix := float64(exact.PrefixMissing) / float64(exact.PrefixTotal)
	if exactLeaf == 0 || exactPrefix == 0 {
		t.Fatal("world unexpectedly perfect; the estimator test needs variance")
	}
	sa := tr.MeasureSampleConf(members, 512, 0.95, rand.New(rand.NewSource(3)), 2)
	if sa.LeafMissing.CI <= 0 || sa.PrefixMissing.CI <= 0 {
		t.Fatalf("degenerate CIs: %+v", sa)
	}
	if d := math.Abs(sa.LeafMissing.Mean - exactLeaf); d > 2*sa.LeafMissing.CI {
		t.Errorf("leaf estimate %v ± %v too far from exact %v", sa.LeafMissing.Mean, sa.LeafMissing.CI, exactLeaf)
	}
	if d := math.Abs(sa.PrefixMissing.Mean - exactPrefix); d > 2*sa.PrefixMissing.CI {
		t.Errorf("prefix estimate %v ± %v too far from exact %v", sa.PrefixMissing.Mean, sa.PrefixMissing.CI, exactPrefix)
	}
}

// markFresh returns a copy of members with every index in fresh marked.
func markFresh(members []Member, fresh ...int) []Member {
	out := append([]Member(nil), members...)
	for _, i := range fresh {
		out[i].Fresh = true
	}
	return out
}

// TestMeasureStratifiedEngagement pins when the stratified path runs: only
// a true sample over a membership holding both fresh and established nodes.
func TestMeasureStratifiedEngagement(t *testing.T) {
	tr, members := sampleWorld(t, 512)
	rng := func() *rand.Rand { return rand.New(rand.NewSource(4)) }

	if sa := tr.MeasureSampleConf(members, 64, 0.95, rng(), 2); sa.Strata != 1 {
		t.Fatalf("uniform membership: Strata = %d, want 1", sa.Strata)
	}
	allFresh := markFresh(members)
	for i := range allFresh {
		allFresh[i].Fresh = true
	}
	if sa := tr.MeasureSampleConf(allFresh, 64, 0.95, rng(), 2); sa.Strata != 1 {
		t.Fatalf("all-fresh membership: Strata = %d, want 1", sa.Strata)
	}
	mixed := markFresh(members, 3, 17, 101, 200, 499)
	sa := tr.MeasureSampleConf(mixed, 64, 0.95, rng(), 2)
	if sa.Strata != 2 {
		t.Fatalf("mixed membership: Strata = %d, want 2", sa.Strata)
	}
	if sa.Exact || sa.SampleSize != 64 || sa.Population != 512 {
		t.Fatalf("stratified aggregate malformed: %+v", sa)
	}
	// Exact fallback ignores the marks.
	if sa := tr.MeasureSampleConf(mixed, 0, 0.95, rng(), 2); !sa.Exact || sa.Strata != 1 {
		t.Fatalf("exact fallback: %+v", sa)
	}
}

// TestMeasureStratifiedInvariance extends the bit-identity contracts to the
// stratified path: identical results for every worker count and for every
// rng with the same seed, different results for different seeds.
func TestMeasureStratifiedInvariance(t *testing.T) {
	tr, members := sampleWorld(t, 1024)
	fresh := make([]int, 0, 60)
	for i := 0; i < 60; i++ {
		fresh = append(fresh, i*17)
	}
	mixed := markFresh(members, fresh...)
	var ref SampleAggregate
	for i, workers := range []int{1, 2, 3, 4, 7} {
		sa := tr.MeasureSampleConf(mixed, 200, 0.95, rand.New(rand.NewSource(42)), workers)
		if i == 0 {
			ref = sa
			continue
		}
		if sa != ref {
			t.Fatalf("workers=%d diverged: %+v != %+v", workers, sa, ref)
		}
	}
	if ref.Strata != 2 {
		t.Fatalf("Strata = %d, want 2", ref.Strata)
	}
	if other := tr.MeasureSampleConf(mixed, 200, 0.95, rand.New(rand.NewSource(43)), 2); other == ref {
		t.Fatal("different seeds produced identical stratified samples (suspicious)")
	}
}

// TestMeasureStratifiedCensusStratum: a fresh stratum smaller than its
// minimum allocation is measured completely; with the established stratum
// also censused (sample size n-1 forces both allocations to their caps) the
// estimate must equal the exact ratio with zero interval width.
func TestMeasureStratifiedCensusStratum(t *testing.T) {
	tr, members := sampleWorld(t, 256)
	mixed := markFresh(members, 7)
	exact := tr.MeasureAll(members, 2)
	sa := tr.MeasureSampleConf(mixed, 255, 0.95, rand.New(rand.NewSource(8)), 2)
	if sa.Strata != 2 {
		t.Fatalf("Strata = %d, want 2", sa.Strata)
	}
	// sFresh clamps to the census of its single node; sEst to 254 of 255.
	if sa.SampleSize != 255 {
		t.Fatalf("SampleSize = %d, want 255", sa.SampleSize)
	}
	wantLeaf := float64(exact.LeafMissing) / float64(exact.LeafTotal)
	if d := math.Abs(sa.LeafMissing.Mean - wantLeaf); d > 0.05 {
		t.Errorf("near-census leaf mean %v far from exact %v", sa.LeafMissing.Mean, wantLeaf)
	}
}

func TestAllocateStrata(t *testing.T) {
	cases := []struct {
		s, nF, nE    int
		wantF, wantE int
	}{
		{128, 40, 4056, 8, 120},   // proportional rounds to 1, floored to 8
		{128, 2048, 2048, 64, 64}, // even split
		{10, 3, 997, 3, 8},        // fresh smaller than the floor: census it
		{10, 1, 999, 1, 9},        // single fresh node: census it
		{100, 4, 5, 4, 5},         // sample bigger than both strata: census both
	}
	for _, tc := range cases {
		gotF, gotE := allocateStrata(tc.s, tc.nF, tc.nE)
		if gotF != tc.wantF || gotE != tc.wantE {
			t.Errorf("allocateStrata(%d, %d, %d) = (%d, %d), want (%d, %d)",
				tc.s, tc.nF, tc.nE, gotF, gotE, tc.wantF, tc.wantE)
		}
	}
}

// TestSampleIndicesUniform draws many small samples and checks every index
// is hit at the expected rate — Floyd's algorithm done right is exactly
// uniform without replacement.
func TestSampleIndicesUniform(t *testing.T) {
	const n, s, rounds = 40, 8, 20000
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, n)
	for r := 0; r < rounds; r++ {
		idx := sampleIndices(rng, n, s)
		if len(idx) != s {
			t.Fatalf("len = %d, want %d", len(idx), s)
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				t.Fatalf("indices not sorted-distinct: %v", idx)
			}
		}
		for _, i := range idx {
			counts[i]++
		}
	}
	want := float64(rounds) * float64(s) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.1 {
			t.Errorf("index %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestTQuantileAgainstTable(t *testing.T) {
	// Two-sided 95% critical values from standard t tables.
	cases := []struct {
		df   int
		want float64
		tol  float64
	}{
		{1, 12.7062, 1e-3},
		{2, 4.3027, 1e-3},
		{3, 3.1824, 0.02},
		{5, 2.5706, 0.005},
		{10, 2.2281, 0.002},
		{30, 2.0423, 1e-3},
		{100, 1.9840, 1e-3},
		{511, 1.9647, 1e-3},
	}
	for _, tc := range cases {
		got := tQuantile(0.95, tc.df)
		if math.Abs(got-tc.want)/tc.want > tc.tol {
			t.Errorf("tQuantile(0.95, %d) = %v, want %v (tol %v)", tc.df, got, tc.want, tc.tol)
		}
	}
	// 99% level spot checks.
	if got := tQuantile(0.99, 10); math.Abs(got-3.1693)/3.1693 > 0.005 {
		t.Errorf("tQuantile(0.99, 10) = %v, want 3.1693", got)
	}
	if got := tQuantile(0.99, 100); math.Abs(got-2.6259)/2.6259 > 1e-3 {
		t.Errorf("tQuantile(0.99, 100) = %v, want 2.6259", got)
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.84134, 0.99999}, // Φ(1) ≈ 0.841345
		{0.025, -1.959964},
	}
	for _, tc := range cases {
		if got := normQuantile(tc.p); math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("normQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}
