// Sampled measurement: the paper reports convergence as means over node
// samples, and at paper scale (2^18) even the sharded full-network
// MeasureAll costs seconds per cycle. MeasureSampleConf measures a uniform
// node sample without replacement and reports ratio estimates of the
// missing-entry proportions with confidence intervals, making per-cycle
// measurement O(sample) instead of O(N).
//
// Estimator. The exact network metric is a ratio of population sums,
// R = Σ missing_i / Σ total_i. The sample is drawn per stratum h (one
// stratum covering everyone, or two — see Stratification) as a simple
// random sample of n_h of the stratum's N_h nodes, and the combined ratio
// estimator
//
//	R̂ = Σ_h (N_h/n_h)·m_h / Σ_h (N_h/n_h)·t_h = M̂ / T̂
//
// targets R with first-order bias O(1/n). Its linearized variance is
//
//	Var(R̂) ≈ (1/T̂²) · Σ_h N_h²·(1 − n_h/N_h)·s_h²/n_h
//
// where s_h² is the within-stratum variance of the residuals
// e_i = missing_i − R̂·total_i (centred per stratum, since the combined R̂
// does not zero each stratum's residual mean) and (1 − n_h/N_h) the finite
// population correction. With one stratum this is the classical
// survey-sampling ratio estimator. A stratum sampled completely is a
// census: it contributes its exact sums and no variance.
//
// Design-effect floor. The design effect of a stratum is s_h² over the
// variance its entries would have if drawn independently,
// t̄_h·R̂_h·(1 − R̂_h). As in the survey-statistics convention for
// proportions (Korn and Graubard, 1998; NCHS data presentation standards),
// an estimated design effect below 1 is truncated to 1: a small sample
// that happened to miss a stratum's rare heavy nodes shows too little
// variance exactly when its interval would be too short. The price is a
// conservative interval where per-node counts are genuinely more regular
// than independent entries — e.g. a converged overlay after removals,
// where every node misses about the same few entries.
//
// Interval. The missing counts are heavily right-skewed (a few imperfect
// nodes carry most of the missing entries), and for skewed data the
// Student-t interval R̂ ± t_{1−α/2, df}·√Var(R̂), df = Σ_h (n_h − 1),
// undercovers by O(γ²/n). The critical value is therefore widened by the
// second-order Edgeworth term of the two-sided studentized mean (Hall,
// The Bootstrap and Edgeworth Expansion, 1992, §2.6):
//
//	z·[ γ²/n·(z⁴ + 2z² − 3)/18 − κ/n·(z² − 3)/12 ]
//
// with z the normal quantile, and γ²/n = k₃²/V³, κ/n = k₄/V² estimated from
// the residuals' third and fourth sample cumulants, scaled per stratum by
// the without-replacement factors (1−f)(1−2f) and (1−f)(1−6f(1−f)). A
// negative term (light tails) is dropped: the interval is never narrower
// than the t-interval.
//
// Each correction is needed on its own: without the floor, a stratified
// sample under churn undercovers the leaf metric; without the Edgeworth
// term, a simple random sample of a partly converged network undercovers
// the prefix metric (DESIGN.md, "Sampled-interval coverage").
//
// Stratification. Under churn the population is a mixture: a small fresh
// minority (nodes that joined in the last cycle or two) with large missing
// counts, and an established majority near zero. A simple random sample's
// count of fresh nodes is itself binomial — the dominant variance term —
// and the residual distribution is bimodal, so the interval undercovers.
// When the membership marks both fresh and established nodes (Member.Fresh)
// the estimator therefore samples the two strata separately with
// proportional allocation (each stratum's count is then fixed, removing
// the binomial mixing term) and combines them with the estimator above.
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
// network-wide missing proportions with confidence intervals at the given
// two-sided level in (0, 1); out-of-range values select 0.95. The
// measurement runs through MeasureAll's sharded loop (workers < 1 means
// GOMAXPROCS); like MeasureAll the result is bit-identical for every
// worker count, because the sample is drawn before sharding and the
// estimate is computed from the per-node counts in sample order. rng drives
// only the sample selection; a given (rng state, members) pair yields the
// same sample deterministically. sampleSize <= 0 or >= len(members) falls
// back to an exact full measurement with zero-width intervals (without
// consuming rng). A membership containing both fresh and established nodes
// (Member.Fresh) is sampled per age stratum — see the package comment.
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
	var strata []stratum
	if nFresh > 0 && nFresh < n {
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
		// The fresh stratum draws from rng first, then the established one.
		strata = []stratum{
			t.measureStratum(members, freshIdx, sFresh, rng, workers),
			t.measureStratum(members, estIdx, sEst, rng, workers),
		}
	} else {
		strata = []stratum{t.measureStratum(members, nil, sampleSize, rng, workers)}
	}

	sa := SampleAggregate{
		Population:    n,
		Confidence:    confidence,
		Strata:        len(strata),
		LeafMissing:   ratioEstimate(strata, leafCounts, confidence),
		PrefixMissing: ratioEstimate(strata, prefixCounts, confidence),
	}
	for _, st := range strata {
		sa.SampleSize += len(st.vals)
		sa.Sums.Add(st.sums)
	}
	return sa
}

// stratum is one stratum's measured sample: the counts of every measured
// node, their sum, and how many nodes the stratum holds in the population.
type stratum struct {
	vals []nodeCounts
	sums Aggregate
	N    int
}

// measureStratum samples s of the stratum's member indices and measures
// them; s >= len(idx) is a census, which draws nothing from rng. A nil idx
// stands for all members and is always sampled (s < len(members)).
func (t *Truth) measureStratum(members []Member, idx []int, s int, rng *rand.Rand, workers int) stratum {
	size := len(idx)
	if idx == nil {
		size = len(members)
	}
	picked := idx
	if s < size {
		pos := sampleIndices(rng, size, s)
		if idx != nil {
			for i, p := range pos {
				pos[i] = idx[p]
			}
		}
		picked = pos
	}
	st := stratum{vals: make([]nodeCounts, len(picked)), N: size}
	st.sums = t.measureShards(members, picked, st.vals, workers)
	return st
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

// leafCounts and prefixCounts select one metric's (missing, total) pair.
func leafCounts(nc nodeCounts) (m, t float64) {
	return float64(nc.leafMissing), float64(nc.leafTotal)
}

func prefixCounts(nc nodeCounts) (m, t float64) {
	return float64(nc.prefixMissing), float64(nc.prefixTotal)
}

// ratioEstimate is one metric's combined ratio estimate and its interval
// over the measured strata; see the package comment for the formulas.
func ratioEstimate(strata []stratum, metric func(nodeCounts) (m, t float64), confidence float64) Estimate {
	var mHat, tHat float64
	for _, st := range strata {
		var m, t float64
		for _, nc := range st.vals {
			mi, ti := metric(nc)
			m += mi
			t += ti
		}
		if len(st.vals) > 0 {
			w := float64(st.N) / float64(len(st.vals))
			mHat += w * m
			tHat += w * t
		}
	}
	if tHat <= 0 {
		return Estimate{}
	}
	r := mHat / tHat
	// v is the linearized variance of M̂ − r·T̂; k3 and k4 are its third and
	// fourth cumulants.
	var v, k3, k4 float64
	df := 0
	for _, st := range strata {
		n := len(st.vals)
		if n < 2 || n >= st.N {
			// Degenerate or census stratum: no sampling variance.
			continue
		}
		nf, N := float64(n), float64(st.N)
		f := nf / N
		var sumE, sumM, sumT float64
		for _, nc := range st.vals {
			mi, ti := metric(nc)
			sumE += mi - r*ti
			sumM += mi
			sumT += ti
		}
		mean := sumE / nf
		var c2, c3, c4 float64
		for _, nc := range st.vals {
			mi, ti := metric(nc)
			d := mi - r*ti - mean
			c2 += d * d
			c3 += d * d * d
			c4 += d * d * d * d
		}
		s2 := c2 / (nf - 1)
		if sumT > 0 {
			// The design-effect floor: never below independent entries.
			rh := sumM / sumT
			s2 = max(s2, sumT/nf*rh*(1-rh))
		}
		mu2, mu3, mu4 := c2/nf, c3/nf, c4/nf
		v += N * N * (1 - f) * s2 / nf
		k3 += N * N * N * (1 - f) * (1 - 2*f) * mu3 / (nf * nf)
		k4 += N * N * N * N * (1 - f) * (1 - 6*f*(1-f)) * (mu4 - 3*mu2*mu2) / (nf * nf * nf)
		df += n - 1
	}
	if v <= 0 {
		return Estimate{Mean: r}
	}
	crit := tQuantile(confidence, df) + edgeworthWidening(k3*k3/(v*v*v), k4/(v*v), confidence)
	return Estimate{Mean: r, CI: crit * math.Sqrt(v) / tHat}
}

// edgeworthWidening is the second-order Edgeworth correction to the
// two-sided critical value of a studentized mean with squared skewness
// skew2 = γ²/n and excess kurtosis kurt = κ/n (the normal-theory part of
// the term is what the Student-t quantile already carries), clamped at
// zero so that it only ever widens the interval.
func edgeworthWidening(skew2, kurt, confidence float64) float64 {
	z := normQuantile(0.5 + confidence/2)
	z2 := z * z
	return max(0, z*(skew2/18*(z2*z2+2*z2-3)-kurt/12*(z2-3)))
}

// sampleIndices draws a uniform sample of s distinct indices in [0, n)
// without replacement using Floyd's algorithm — O(s) memory and exactly s
// rng draws — and returns them sorted, so the sharded measurement walks
// members in cache-friendly order.
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
