package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testenv"
)

// TestCampaignHeapPerNode is the memory gate on per-node state at campaign
// scale: Figure 3 at N=4096 with MemStats, on both samplers, must keep the
// live heap per node under a ceiling. Every simnet node, oracle stream and
// NEWSCAST sampler owns an RNG; with an 8-byte id.SplitMix64 behind each
// the run measures about 9.1 KB/node (oracle) and 17.4 KB/node (NEWSCAST);
// with a 4.9 KB math/rand source each it measured 14.2 and 29.1 KB, above
// both ceilings. BenchmarkNetworkFootprint cannot see that: it builds its
// network over one shared oracle, not per-node streams.
func TestCampaignHeapPerNode(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector's allocations inflate the heap")
	}
	const n = 4096
	for _, tc := range []struct {
		name    string
		sampler SamplerKind
		max     uint64
	}{
		{"oracle", SamplerOracle, 11000},
		{"newscast", SamplerNewscast, 21000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Params{
				N: n, Seed: 42, Config: core.DefaultConfig(), MaxCycles: 60,
				Sampler: tc.sampler, WarmupCycles: 10, MemStats: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			perNode := res.HeapBytes / n
			t.Logf("heap %d B/node (ceiling %d)", perNode, tc.max)
			if perNode > tc.max {
				t.Errorf("heap %d B/node, want <= %d: a per-node RNG source is back", perNode, tc.max)
			}
		})
	}
}
