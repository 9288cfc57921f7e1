// Benchmarks of the hot paths and of the memory footprint. Each is read by
// a step of .github/workflows/ci.yml, whose "Every benchmark has a CI step"
// check fails on one that is not: MeasureSample (the stats job's >= 20x
// speedup), NetworkFootprint (bytes/node <= 7500), SimnetSharded (a trend),
// and EventLoop, CreateMessageViaTick and the three Truth benchmarks (the
// bench job's "Key benchmarks"). The paper's figures and prose results are
// regenerated by cmd/sim (`sim fig3`, `sim churn`, ...), not here.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// BenchmarkNetworkFootprint measures the retained heap per node of a full
// deployment at the paper's smallest headline size (2^14): network, event
// queue, sampling oracle, and every node's protocol state (leaf set, prefix
// table, certificates, per-node RNG) after the protocol has run long enough
// to fill its structures. Routing-state bytes/node — not CPU — is what
// bounds the reachable network size in RAM, so CI tracks this metric across
// PRs and asserts it never regresses.
func BenchmarkNetworkFootprint(b *testing.B) {
	const n = 1 << 14
	const cycles = 15
	var before, after runtime.MemStats
	var perNode float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)

		descs, _ := benchWorld(n, 77)
		oracle := sampling.NewOracle(descs, 5)
		cfg := core.DefaultConfig()
		// Arena-backed structures, matching what the experiment harness
		// builds per trial.
		cfg.Arena = peer.NewDescriptorArena()
		net := simnet.New(simnet.Config{Seed: 78})
		nodes := make([]*core.Node, n)
		rng := rand.New(rand.NewSource(79))
		for j := range descs {
			addr := net.AddNode()
			nd, err := core.NewNode(descs[j], cfg, oracle)
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Attach(addr, core.ProtoID, nd, cfg.Delta, rng.Int63n(cfg.Delta)); err != nil {
				b.Fatal(err)
			}
			nodes[j] = nd
		}
		net.Run(cycles * cfg.Delta)

		runtime.GC()
		runtime.ReadMemStats(&after)
		perNode += float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		runtime.KeepAlive(nodes)
		runtime.KeepAlive(net)
		runtime.KeepAlive(oracle)
	}
	b.ReportMetric(perNode/float64(b.N), "bytes/node")
}

// --- Micro-benchmarks on the protocol's hot paths. ---

func benchWorld(n int, seed int64) ([]peer.Descriptor, []id.ID) {
	ids := id.Unique(n, seed)
	descs := make([]peer.Descriptor, n)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	return descs, ids
}

func BenchmarkCreateMessageViaTick(b *testing.B) {
	// Measures a full protocol Tick — selectPeer + createMessage — on a
	// node with converged state, driven through a one-node simnet.
	descs, _ := benchWorld(4096, 4)
	cfg := core.DefaultConfig()
	oracle := sampling.NewOracle(descs, 5)
	net := simnet.New(simnet.Config{Seed: 6})
	addr := net.AddNode()
	self := peer.Descriptor{ID: descs[0].ID, Addr: addr}
	nd, err := core.NewNode(self, cfg, oracle)
	if err != nil {
		b.Fatal(err)
	}
	if err := net.Attach(addr, core.ProtoID, nd, cfg.Delta, 0); err != nil {
		b.Fatal(err)
	}
	nd.Leaf().Update(descs[1:100])
	nd.Table().AddAll(descs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(net.Now() + cfg.Delta)
	}
}

// BenchmarkEventLoop measures the raw simnet event loop — tick dispatch,
// message enqueue, pop, deliver — with a trivial protocol, isolating the
// event-queue cost from protocol work. The allocs/op figure is the pooled
// queue's reason to exist: steady state should allocate nothing per event
// beyond the message value itself.
func BenchmarkEventLoop(b *testing.B) {
	const nodes = 256
	net := simnet.New(simnet.Config{Seed: 23})
	addrs := make([]peer.Addr, nodes)
	for i := range addrs {
		addrs[i] = net.AddNode()
	}
	for i, a := range addrs {
		p := &pingProto{target: addrs[(i+1)%nodes]}
		if err := net.Attach(a, 1, p, 10, int64(i%10)); err != nil {
			b.Fatal(err)
		}
	}
	net.Run(3000) // warm: queue (one bucket-ring lap) and pool reach steady-state size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(net.Now() + 10)
	}
}

// pingProto sends one empty message per tick to a fixed neighbour.
type pingProto struct{ target peer.Addr }

type emptyMsg struct{}

func (p *pingProto) Init(ctx proto.Context)                                      {}
func (p *pingProto) Tick(ctx proto.Context)                                      { ctx.Send(p.target, emptyMsg{}) }
func (p *pingProto) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {}

// BenchmarkSimnetSharded compares the sequential engine (shards=1) against
// the one-step-per-instant parallel engine at GOMAXPROCS shards on the same
// fixed-length bootstrap workload (KeepRunningAfterPerfect pins the cycle
// count, so both variants execute the same number of protocol cycles).
// The gap between the two sub-benchmarks is the engine-level speedup the
// sharded event loop buys on one trial; MeasureWorkers parallelises the
// measurement plane identically in both, isolating the dispatch loop.
func BenchmarkSimnetSharded(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		// On a single-core runner the parallel leg still runs the sharded
		// engine (measuring its overhead) instead of duplicating shards=1.
		par = 2
	}
	for _, shards := range []int{1, par} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(experiment.Params{
					N:                       4096,
					Seed:                    int64(9000 + i),
					Config:                  core.DefaultConfig(),
					MaxCycles:               12,
					KeepRunningAfterPerfect: true,
					Shards:                  shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Points) != 12 {
					b.Fatalf("ran %d cycles, want 12", len(res.Points))
				}
			}
		})
	}
}

func BenchmarkTruthBuild(b *testing.B) {
	_, ids := benchWorld(1<<14, 7)
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truth.New(ids, cfg.B, cfg.K, cfg.C); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruthUpdateChurn measures one churn cycle applied to the
// incremental oracle — 1% of a 2^14 membership replaced per iteration —
// the operation that used to be a full truth.New rebuild per measured
// cycle. Compare ns/op and allocs/op against BenchmarkTruthBuild: the
// whole point of the incremental oracle is that this is a rounding error
// next to a rebuild.
func BenchmarkTruthUpdateChurn(b *testing.B) {
	const n = 1 << 14
	const churn = n / 100
	gen := id.NewGenerator(26)
	ids := make([]id.ID, n)
	for i := range ids {
		ids[i] = gen.Next()
	}
	cfg := core.DefaultConfig()
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	removed := make([]id.ID, churn)
	added := make([]id.ID, churn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < churn; j++ {
			k := rng.Intn(len(ids))
			removed[j] = ids[k]
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		for j := range added {
			added[j] = gen.Next()
		}
		if err := tr.Update(added, removed); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, added...)
	}
}

// invalidateMeasureCache moves the oracle's membership out and back — one
// ID in, the same ID out — which leaves the membership as it was and makes
// every member's cached measurement stale, so the next measurement
// re-measures each node it covers, as in a cycle where everything changed.
// It runs with the timer stopped.
func invalidateMeasureCache(b *testing.B, tr *truth.Truth) {
	b.StopTimer()
	spare := id.ID(1)
	for tr.Contains(spare) {
		spare++
	}
	if err := tr.Add(spare); err != nil {
		b.Fatal(err)
	}
	if err := tr.Remove(spare); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
}

// BenchmarkTruthMeasureAll measures a full-network convergence measurement
// at N=2^14 over realistic mid-convergence node state, sharded across a
// worker pool. The workers=1 case is the serial baseline; the speedup at
// workers=4 is the acceptance figure for the sharded measurement plane
// (the result itself is bit-identical across worker counts). Every
// iteration measures every node afresh (invalidateMeasureCache); cached is
// the steady state of a network in which no node changed.
func BenchmarkTruthMeasureAll(b *testing.B) {
	const n = 1 << 14
	descs, ids := benchWorld(n, 25)
	cfg := core.DefaultConfig()
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		b.Fatal(err)
	}
	members := make([]truth.Member, n)
	for i := range members {
		ls := core.NewLeafSet(ids[i], cfg.C)
		lo := i % (n - 40)
		ls.Update(descs[lo : lo+40])
		pt := core.NewPrefixTable(ids[i], cfg.B, cfg.K)
		start := (i * 131) % (n - 256)
		pt.AddAll(descs[start : start+256])
		members[i] = truth.Member{Self: ids[i], Leaf: ls, Table: pt}
	}
	ref := tr.MeasureAll(members, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				invalidateMeasureCache(b, tr)
				if agg := tr.MeasureAll(members, workers); agg != ref {
					b.Fatalf("aggregate diverged across worker counts: %+v != %+v", agg, ref)
				}
			}
		})
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if agg := tr.MeasureAll(members, 1); agg != ref {
				b.Fatalf("cached aggregate diverged: %+v != %+v", agg, ref)
			}
		}
	})
}

// BenchmarkMeasureSample is the acceptance benchmark for the sampled
// measurement plane: at n=2^16 a 1024-node MeasureSampleConf must be
// >= 20x faster than the sharded full-network MeasureAll it replaces (it
// measures 64x fewer nodes; sample selection is O(sample)). The sampled
// estimate's intervals are exercised for correctness by the statistical
// suite; this benchmark tracks the speed claim in CI (BENCH_pr4.json).
// Both sides measure every node they cover afresh each iteration
// (invalidateMeasureCache): the claim compares measurement work, and a
// cached full measurement of an unchanged network would do none. cached is
// that steady state, for reference.
func BenchmarkMeasureSample(b *testing.B) {
	const n = 1 << 16
	const sample = 1024
	descs, ids := benchWorld(n, 25)
	cfg := core.DefaultConfig()
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		b.Fatal(err)
	}
	members := make([]truth.Member, n)
	for i := range members {
		ls := core.NewLeafSet(ids[i], cfg.C)
		lo := i % (n - 40)
		ls.Update(descs[lo : lo+40])
		pt := core.NewPrefixTable(ids[i], cfg.B, cfg.K)
		start := (i * 131) % (n - 96)
		pt.AddAll(descs[start : start+96])
		members[i] = truth.Member{Self: ids[i], Leaf: ls, Table: pt}
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invalidateMeasureCache(b, tr)
			tr.MeasureAll(members, 0)
		}
	})
	b.Run(fmt.Sprintf("sample%d", sample), func(b *testing.B) {
		rng := rand.New(rand.NewSource(99))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invalidateMeasureCache(b, tr)
			sa := tr.MeasureSampleConf(members, sample, 0.95, rng, 0)
			if sa.Exact || sa.SampleSize != sample {
				b.Fatalf("unexpected fallback: %+v", sa)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		tr.MeasureAll(members, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.MeasureAll(members, 0)
		}
	})
}
