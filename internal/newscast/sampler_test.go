package newscast

import (
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
)

func TestSamplerBoundsAndDistinctness(t *testing.T) {
	const n, delta = 200, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 37}, delta)
	net.Run(delta * 15)
	s := NewSampler(protos[42], 1)
	got := s.Sample(10)
	if len(got) != 10 {
		t.Fatalf("sample size %d, want 10", len(got))
	}
	seen := make(map[id.ID]struct{})
	for _, d := range got {
		if _, dup := seen[d.ID]; dup {
			t.Fatal("duplicate in sample")
		}
		seen[d.ID] = struct{}{}
	}
	if got := s.Sample(1000); len(got) != len(protos[42].View()) {
		t.Errorf("oversized sample returned %d, want view size %d", len(got), len(protos[42].View()))
	}
	if got := s.Sample(0); got != nil {
		t.Errorf("zero sample returned %v", got)
	}
}

func TestSamplerAppendMatchesSample(t *testing.T) {
	const n, delta = 100, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 39}, delta)
	net.Run(delta * 15)
	a := NewSampler(protos[7], 123)
	b := NewSampler(protos[7], 123)
	var buf []peer.Descriptor
	for round := 0; round < 30; round++ {
		sa := a.Sample(5)
		buf = b.AppendSample(buf[:0], 5)
		for i := range sa {
			if sa[i] != buf[i] {
				t.Fatalf("round %d pos %d: Sample %v != AppendSample %v", round, i, sa[i], buf[i])
			}
		}
	}
}

// TestStatNewscastSamplerUniformity is the chi-squared quality check of the
// decentralized sampler: descriptors drawn from converged NEWSCAST views at
// n=1024 must be spread over the membership nearly as uniformly as the
// global-knowledge oracle's. NEWSCAST samples are not i.i.d. uniform —
// consecutive views overlap, so counts are overdispersed relative to the
// oracle — hence the statistic is bounded by a generous multiple of the
// oracle baseline rather than a raw chi-squared critical value, mirroring
// the loose per-peer bound of TestSampleApproximatelyUniform.
func TestStatNewscastSamplerUniformity(t *testing.T) {
	const n, delta = 1024, 10
	const observers, perDraw, cycles = 16, 3, 150
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 41}, delta)
	net.Run(delta * 15) // converge first

	descs := make([]peer.Descriptor, n)
	for i, p := range protos {
		descs[i] = p.self
	}

	samplers := make([]*Sampler, observers)
	for i := range samplers {
		samplers[i] = NewSampler(protos[(i*61)%n], int64(500+i))
	}
	counts := make(map[id.ID]int, n)
	draws := 0
	for c := 0; c < cycles; c++ {
		net.Run(net.Now() + delta)
		for _, s := range samplers {
			for _, d := range s.Sample(perDraw) {
				counts[d.ID]++
				draws++
			}
		}
	}

	// Oracle baseline: the same number of draws from perfect uniform
	// sampling, same chi-squared statistic.
	oracle := sampling.NewOracle(descs, 71)
	oracleCounts := make(map[id.ID]int, n)
	for i := 0; i < draws/perDraw; i++ {
		for _, d := range oracle.Sample(perDraw) {
			oracleCounts[d.ID]++
		}
	}

	chi2 := func(counts map[id.ID]int, draws int) float64 {
		e := float64(draws) / float64(n)
		var x float64
		for _, d := range descs {
			o := float64(counts[d.ID])
			x += (o - e) * (o - e) / e
		}
		return x
	}
	ncChi, orChi := chi2(counts, draws), chi2(oracleCounts, draws)
	t.Logf("draws=%d newscast chi2=%.0f oracle chi2=%.0f (df=%d)", draws, ncChi, orChi, n-1)

	// The oracle statistic concentrates near df = n-1; NEWSCAST's view
	// correlation costs a constant factor, not an asymptotic one.
	if ncChi > 5*orChi {
		t.Errorf("newscast sampler chi2 %.0f exceeds 5x the oracle baseline %.0f", ncChi, orChi)
	}
	// Nearly every member must be reachable through gossip views.
	if len(counts) < n*9/10 {
		t.Errorf("only %d/%d members ever sampled from newscast views", len(counts), n)
	}
}
