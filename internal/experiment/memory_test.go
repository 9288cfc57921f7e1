package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/testenv"
)

// TestCampaignHeapPerNode is the memory gate on per-node state at campaign
// scale: Figure 3 at N=4096 with MemStats, on both samplers, must keep the
// live heap per node under a ceiling. Five per-node costs have been cut
// behind it. Every simnet node, oracle stream and NEWSCAST sampler owns an
// RNG: an 8-byte id.SplitMix64 each, where a 4.9 KB math/rand source each
// measured 14.2 and 29.1 KB/node. Simnet's wheel (internal/sched) keeps
// backing arrays only for occupied buckets, where one array parked per ring
// slot measured 9.1 and 17.4 KB/node. A prefix-table row is a block of a
// capacity class that fits its entries, where a fixed 2^b·k-descriptor row
// measured 6.3 and 9.9 KB/node. And a NEWSCAST node keeps one view array:
// merge's buffers come from a process-wide pool and the sampler shuffles
// its indices on the stack, where a spare view, a sort scratch and an index
// array per node measured 7.9 KB/node (NEWSCAST). And a core.Node holds
// only the paper's state: the eviction extension's five fields live in an
// evictor that only nodes with eviction on allocate, where carrying them on
// every node measured 5.2 and 6.7 KB/node. Today the run measures about
// 5.0 KB/node (oracle) and 6.5 KB/node (NEWSCAST).
// BenchmarkNetworkFootprint cannot see the RNGs: it builds its network over
// one shared oracle, not per-node streams.
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
		{"newscast", SamplerNewscast, 7500},
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
				t.Errorf("heap %d B/node, want <= %d: the wheel parks an array per ring slot again, a per-node RNG source is back, prefix-table rows are padded again, or NEWSCAST nodes keep their own merge buffers again", perNode, tc.max)
			}
		})
	}
}

// TestRunLiveHeapPerHost is the same gate on the goroutine engine: a
// failure-free RunLive at N=1024 with MemStats must keep the live heap per
// host under a ceiling. A host's inbox is a 16-slot channel with a spill
// grown only under a burst, where a channel of its whole bound (256 slots
// of 24 B) measured about 12.6 KB/host. A host's oracle Stream draws its
// sample indices on the stack, and its core.Node carries no eviction
// state; with a scratch per Stream and the eviction fields on every node
// the run measured about 6.5 KB/host, today about 6.1 KB/host. Its name
// does not start with TestLive: CI's test step skips those, and its live
// job runs them under -race, where this gate skips.
func TestRunLiveHeapPerHost(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector's allocations inflate the heap")
	}
	const n, ceiling = 1024, 9000
	res, err := RunLive(LiveParams{
		N: n, Config: core.DefaultConfig(), Cycles: 30,
		Scenario: livenet.ScenarioNone, MemStats: true,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	perHost := res.HeapBytes / n
	t.Logf("heap %d B/host (ceiling %d), converged at cycle %d", perHost, ceiling, res.ConvergedAt)
	if perHost > ceiling {
		t.Errorf("heap %d B/host, want <= %d: every host preallocates its whole inbox again", perHost, ceiling)
	}
}
