// Sampled measurement: the paper reports convergence as means over node
// samples, and at paper scale (2^18) even the sharded full-network
// MeasureAll costs seconds per cycle. MeasureSampleConf measures a uniform
// node sample without replacement and reports ratio estimates of the
// missing-entry proportions with Student-t confidence intervals, making
// per-cycle measurement O(sample) instead of O(N).
//
// Estimator. The exact network metric is a ratio of population sums,
// R = Σ missing_i / Σ total_i. Over a simple random sample without
// replacement of s of the N nodes, the classical survey-sampling ratio
// estimator R̂ = Σ_s missing_i / Σ_s total_i targets R with first-order
// bias O(1/s), and its linearized variance is
//
//	Var(R̂) ≈ (1 − s/N) · s_e² / (s · t̄²)
//
// where s_e² = Σ_s (missing_i − R̂·total_i)² / (s−1) is the residual
// variance and t̄ the sample mean of total_i; (1 − s/N) is the finite
// population correction for sampling without replacement. The reported
// interval is R̂ ± t_{1−α/2, s−1} · √Var(R̂).
//
// Stratification. Under churn the population is a mixture: a small fresh
// minority (nodes that joined in the last cycle or two) with large missing
// counts, and an established majority near zero. A simple random sample's
// count of fresh nodes is itself binomial — the dominant variance term —
// and the residual distribution is bimodal, so the t-interval undercovers.
// When the membership marks both fresh and established nodes (Member.Fresh)
// the estimator therefore samples the two strata separately with
// proportional allocation and reports the combined ratio estimator
//
//	R̂ = Σ_h (N_h/n_h)·m_h / Σ_h (N_h/n_h)·t_h
//
// with the stratified linearized variance
//
//	Var(R̂) = (1/T̂²) · Σ_h N_h²·(1 − n_h/N_h)·s_eh²/n_h
//
// where s_eh² is the within-stratum variance of the residuals
// e_i = missing_i − R̂·total_i (centred per stratum, since the combined R̂
// does not zero each stratum's residual mean), and the t-interval uses
// df = Σ_h (n_h − 1). Fixing each stratum's sample count removes the
// binomial mixing term entirely. A stratum sampled completely is a census:
// it contributes its exact sums and zero variance.
package truth

import (
	"math"
	"math/rand"
	"slices"
)

// Estimate is a point estimate together with the half-width of its
// two-sided confidence interval: the exact value is claimed to lie in
// [Mean−CI, Mean+CI] at the configured confidence level.
type Estimate struct {
	Mean float64
	CI   float64
}

// Covers reports whether exact lies inside the interval.
func (e Estimate) Covers(exact float64) bool {
	return math.Abs(e.Mean-exact) <= e.CI
}

// SampleAggregate is the result of a sampled measurement.
type SampleAggregate struct {
	// SampleSize is the number of nodes actually measured; Population is
	// the membership size the sample was drawn from.
	SampleSize, Population int
	// Confidence is the two-sided level of the intervals (e.g. 0.95).
	Confidence float64
	// Exact is true when the requested sample covered the whole
	// population, so the estimates are exact and the CIs zero.
	Exact bool
	// Strata is the number of node-age strata the estimator used: 1 on
	// the classical single-stratum path (uniform membership, or an exact
	// fallback), 2 when the membership contained both fresh and
	// established nodes and the sample was stratified (see Member.Fresh).
	Strata int
	// LeafMissing and PrefixMissing estimate the network-wide missing
	// proportions — the quantities MeasureAll computes exactly.
	LeafMissing, PrefixMissing Estimate
	// Sums are the raw integer sums over the measured nodes only (the
	// whole network when Exact). Callers scale the count metrics by
	// Population/SampleSize to project them to the network.
	Sums Aggregate
}

// MeasureSampleConf measures a uniform random sample of sampleSize members
// drawn without replacement and returns ratio estimates of the
// network-wide missing proportions with Student-t confidence intervals at
// the given two-sided level in (0, 1); out-of-range values select 0.95.
// The measurement runs through MeasureAll's sharded loop (workers < 1
// means GOMAXPROCS); like MeasureAll the result is bit-identical for every
// worker count, because the sample is drawn before sharding and every
// accumulation is integral. rng drives only the sample selection; a given
// (rng state, members) pair yields the same sample deterministically.
// sampleSize <= 0 or >= len(members) falls back to an exact full
// measurement with zero-width intervals (without consuming rng). A
// membership containing both fresh and established nodes (Member.Fresh) is
// sampled per age stratum and estimated with the combined stratified
// estimator — see the package comment.
func (t *Truth) MeasureSampleConf(members []Member, sampleSize int, confidence float64, rng *rand.Rand, workers int) SampleAggregate {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	n := len(members)
	if sampleSize <= 0 || sampleSize >= n {
		agg := t.MeasureAll(members, workers)
		sa := SampleAggregate{
			SampleSize: n,
			Population: n,
			Confidence: confidence,
			Exact:      true,
			Strata:     1,
			Sums:       agg,
		}
		if agg.LeafTotal > 0 {
			sa.LeafMissing.Mean = float64(agg.LeafMissing) / float64(agg.LeafTotal)
		}
		if agg.PrefixTotal > 0 {
			sa.PrefixMissing.Mean = float64(agg.PrefixMissing) / float64(agg.PrefixTotal)
		}
		return sa
	}

	nFresh := 0
	for i := range members {
		if members[i].Fresh {
			nFresh++
		}
	}
	if nFresh > 0 && nFresh < n {
		return t.measureStratified(members, sampleSize, confidence, nFresh, rng, workers)
	}

	idx := sampleIndices(rng, n, sampleSize)
	sums := t.measureShards(members, idx, workers)
	tq := tQuantile(confidence, sampleSize-1)
	return SampleAggregate{
		SampleSize: sampleSize,
		Population: n,
		Confidence: confidence,
		Strata:     1,
		LeafMissing: ratioEstimate(int64(sums.agg.LeafMissing), int64(sums.agg.LeafTotal),
			sums.leafMM, sums.leafMT, sums.leafTT, sampleSize, n, tq),
		PrefixMissing: ratioEstimate(int64(sums.agg.PrefixMissing), int64(sums.agg.PrefixTotal),
			sums.prefixMM, sums.prefixMT, sums.prefixTT, sampleSize, n, tq),
		Sums: sums.agg,
	}
}

// stratum is one age stratum's measured sample: its integer sums, how many
// nodes were measured, and how many the stratum holds in the population.
type stratum struct {
	sums measureSums
	n, N int
}

// measureStratified draws and measures the fresh and established strata
// separately (proportional allocation with a per-stratum floor, census
// when the allocation covers a stratum) and combines them with the
// stratified ratio estimator described in the package comment. The fresh
// stratum draws from rng first, then the established one, so the result is
// a deterministic function of (rng state, members) like the classical path;
// a census stratum consumes no rng at all, mirroring the exact fallback.
func (t *Truth) measureStratified(members []Member, sampleSize int, confidence float64, nFresh int, rng *rand.Rand, workers int) SampleAggregate {
	n := len(members)
	freshIdx := make([]int, 0, nFresh)
	estIdx := make([]int, 0, n-nFresh)
	for i := range members {
		if members[i].Fresh {
			freshIdx = append(freshIdx, i)
		} else {
			estIdx = append(estIdx, i)
		}
	}
	sFresh, sEst := allocateStrata(sampleSize, len(freshIdx), len(estIdx))
	strata := [2]stratum{
		t.measureStratum(members, freshIdx, sFresh, rng, workers),
		t.measureStratum(members, estIdx, sEst, rng, workers),
	}
	measured := strata[0].n + strata[1].n
	df := 0
	for _, st := range strata {
		if st.n < st.N && st.n >= 2 {
			df += st.n - 1
		}
	}
	tq := tQuantile(confidence, df)
	sa := SampleAggregate{
		SampleSize: measured,
		Population: n,
		Confidence: confidence,
		Strata:     2,
		LeafMissing: combinedRatioEstimate([2]metricSums{
			strata[0].metric(leafMetric), strata[1].metric(leafMetric)}, tq),
		PrefixMissing: combinedRatioEstimate([2]metricSums{
			strata[0].metric(prefixMetric), strata[1].metric(prefixMetric)}, tq),
	}
	var both measureSums
	both.add(strata[0].sums)
	both.add(strata[1].sums)
	sa.Sums = both.agg
	return sa
}

// measureStratum samples s of the stratum's indices (all of them when
// s >= len(idx): a census, drawing nothing from rng) and measures them.
func (t *Truth) measureStratum(members []Member, idx []int, s int, rng *rand.Rand, workers int) stratum {
	picked := idx
	if s < len(idx) {
		pos := sampleIndices(rng, len(idx), s)
		picked = make([]int, len(pos))
		for i, p := range pos {
			picked[i] = idx[p]
		}
	}
	return stratum{
		sums: t.measureShards(members, picked, workers),
		n:    len(picked),
		N:    len(idx),
	}
}

// stratumFloor is the smallest sample a stratum is given (when it holds
// that many nodes): a within-stratum variance estimated from fewer than ~8
// residuals is noisy enough to destabilise the interval width, and the
// budget cost of the floor is negligible for the stratum sizes the harness
// produces.
const stratumFloor = 8

// allocateStrata splits the requested sample size proportionally across
// the two strata, then clamps so each stratum measures at least
// stratumFloor nodes, or all of them when it holds fewer. The point of
// stratifying is that neither stratum's count is left to chance;
// proportional allocation keeps the established stratum's sample large,
// which matters because under continuous churn the established majority
// carries its own missing-entry tail (dead entries left by departed
// neighbours), not just the fresh minority. The clamped total may differ
// slightly from the request; the caller reports the actual size.
func allocateStrata(sampleSize, nFresh, nEst int) (sFresh, sEst int) {
	sFresh = int(math.Round(float64(sampleSize) * float64(nFresh) / float64(nFresh+nEst)))
	if sFresh < stratumFloor {
		sFresh = stratumFloor
	}
	if sFresh > nFresh {
		sFresh = nFresh
	}
	sEst = sampleSize - sFresh
	if sEst < stratumFloor {
		sEst = stratumFloor
	}
	if sEst > nEst {
		sEst = nEst
	}
	return sFresh, sEst
}

// metricSums is one metric's slice of a stratum: the per-metric integer
// sums plus the stratum's sample and population counts.
type metricSums struct {
	m, t, mm, mt, tt int64
	n, N             int
}

const (
	leafMetric = iota
	prefixMetric
)

func (st stratum) metric(which int) metricSums {
	s := &st.sums
	ms := metricSums{n: st.n, N: st.N}
	if which == leafMetric {
		ms.m, ms.t = int64(s.agg.LeafMissing), int64(s.agg.LeafTotal)
		ms.mm, ms.mt, ms.tt = s.leafMM, s.leafMT, s.leafTT
	} else {
		ms.m, ms.t = int64(s.agg.PrefixMissing), int64(s.agg.PrefixTotal)
		ms.mm, ms.mt, ms.tt = s.prefixMM, s.prefixMT, s.prefixTT
	}
	return ms
}

// combinedRatioEstimate finalizes one metric's stratified ratio estimate.
// With a single stratum covering the population it reduces exactly to
// ratioEstimate (the weights cancel); see the package comment for the
// formulas.
func combinedRatioEstimate(strata [2]metricSums, tq float64) Estimate {
	var mHat, tHat float64
	for _, st := range strata {
		if st.n == 0 {
			continue
		}
		w := float64(st.N) / float64(st.n)
		mHat += w * float64(st.m)
		tHat += w * float64(st.t)
	}
	if tHat <= 0 {
		return Estimate{}
	}
	r := mHat / tHat
	var v float64
	for _, st := range strata {
		if st.n < 2 || st.n >= st.N {
			// Degenerate or census stratum: no sampling variance.
			continue
		}
		// Within-stratum residual variance around the combined ratio,
		// centred because Σe_h ≠ 0 under the combined R̂.
		sumE := float64(st.m) - r*float64(st.t)
		sumE2 := float64(st.mm) - 2*r*float64(st.mt) + r*r*float64(st.tt)
		ss := sumE2 - sumE*sumE/float64(st.n)
		if ss < 0 {
			ss = 0
		}
		s2 := ss / float64(st.n-1)
		fpc := 1 - float64(st.n)/float64(st.N)
		v += float64(st.N) * float64(st.N) * fpc * s2 / float64(st.n)
	}
	return Estimate{Mean: r, CI: tq * math.Sqrt(v) / tHat}
}

// sampleIndices draws a uniform sample of s distinct indices in [0, n)
// without replacement using Floyd's algorithm — O(s) memory and exactly s
// rng draws — and returns them sorted, so the sharded measurement walks
// members in cache-friendly order and the integer sums are independent of
// draw order anyway.
func sampleIndices(rng *rand.Rand, n, s int) []int {
	chosen := make(map[int]struct{}, s)
	idx := make([]int, 0, s)
	for i := n - s; i < n; i++ {
		j := rng.Intn(i + 1)
		if _, dup := chosen[j]; dup {
			j = i
		}
		chosen[j] = struct{}{}
		idx = append(idx, j)
	}
	slices.Sort(idx)
	return idx
}

// ratioEstimate finalizes one metric's ratio estimate from the integer
// sample sums. tq is the Student-t critical value for the interval.
func ratioEstimate(sumM, sumT, sumMM, sumMT, sumTT int64, s, n int, tq float64) Estimate {
	if sumT <= 0 {
		return Estimate{}
	}
	r := float64(sumM) / float64(sumT)
	if s < 2 {
		return Estimate{Mean: r}
	}
	// Residual sum of squares Σ(m_i − R̂·t_i)² expanded over the integer
	// sums; clamp tiny negative float cancellation.
	rss := float64(sumMM) - 2*r*float64(sumMT) + r*r*float64(sumTT)
	if rss < 0 {
		rss = 0
	}
	s2 := rss / float64(s-1)
	tbar := float64(sumT) / float64(s)
	fpc := 1 - float64(s)/float64(n)
	if fpc < 0 {
		fpc = 0
	}
	se := math.Sqrt(fpc*s2/float64(s)) / tbar
	return Estimate{Mean: r, CI: tq * se}
}

// tQuantile returns the two-sided Student-t critical value: the t with
// P(|T_df| <= t) = confidence. Exact closed forms for df 1 and 2; the
// Cornish-Fisher expansion of the normal quantile otherwise (relative
// error < 0.2% at df = 3, < 0.01% for df >= 10 — far below the
// statistical noise of any sample the harness draws).
func tQuantile(confidence float64, df int) float64 {
	p := 0.5 + confidence/2
	switch {
	case df <= 0:
		return math.Inf(1)
	case df == 1:
		return math.Tan(math.Pi * (p - 0.5))
	case df == 2:
		a := 2*p - 1
		return a * math.Sqrt(2/(1-a*a))
	}
	z := normQuantile(p)
	v := float64(df)
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := (((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z) / 92160
	return z + g1/v + g2/(v*v) + g3/(v*v*v) + g4/(v*v*v*v)
}

// normQuantile is the standard normal inverse CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9 over (0, 1)).
func normQuantile(p float64) float64 {
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
}
