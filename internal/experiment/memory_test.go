package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testenv"
)

// TestCampaignHeapPerNode is the memory gate on per-node state at campaign
// scale: Figure 3 at N=4096 with MemStats, on both samplers, must keep the
// live heap per node under a ceiling. Three per-node costs have been cut
// behind it. Every simnet node, oracle stream and NEWSCAST sampler owns an
// RNG: an 8-byte id.SplitMix64 each, where a 4.9 KB math/rand source each
// measured 14.2 and 29.1 KB/node. Simnet's wheel (internal/sched) keeps
// backing arrays only for occupied buckets, where one array parked per ring
// slot measured 9.1 and 17.4 KB/node. And a prefix-table row is a block of
// a capacity class that fits its entries, where a fixed 2^b·k-descriptor
// row measured 6.3 and 9.9 KB/node. Today the run measures about
// 5.5 KB/node (oracle) and 9.1 KB/node (NEWSCAST). BenchmarkNetworkFootprint
// cannot see the RNGs: it builds its network over one shared oracle, not
// per-node streams.
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
		{"oracle", SamplerOracle, 6500},
		{"newscast", SamplerNewscast, 11000},
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
				t.Errorf("heap %d B/node, want <= %d: the wheel parks an array per ring slot again, a per-node RNG source is back, or prefix-table rows are padded again", perNode, tc.max)
			}
		})
	}
}
