// Benchmarks regenerating every figure and prose result of the paper's
// evaluation (Section 5), plus ablations and micro-benchmarks. Each
// figure-level benchmark runs the full experiment and reports the paper's
// headline quantity (cycles to perfect convergence) as a custom metric, so
//
//	go test -bench . -benchmem
//
// prints the series the paper's plots are built from. cmd/sim prints the
// full per-cycle CSV, including at the paper's 2^14-2^18 sizes.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/experiment"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// benchSizes are laptop-quick defaults; the paper's sizes (2^14, 2^16,
// 2^18) are available through `sim fig3 -paper`.
var benchSizes = []int{1 << 10, 1 << 12, 1 << 14}

func runToConvergence(b *testing.B, p experiment.Params) *experiment.Result {
	b.Helper()
	res, err := experiment.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		b.Fatalf("no convergence within %d cycles (final %+v)", p.MaxCycles, res.Final())
	}
	return res
}

// BenchmarkFig3Convergence reproduces Figure 3 (both panels): failure-free
// bootstrap at increasing N. Metrics: cycles to perfection, plus the cycle
// at which each structure individually became perfect.
func BenchmarkFig3Convergence(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var cycles, leafAt, prefixAt float64
			for i := 0; i < b.N; i++ {
				res := runToConvergence(b, experiment.Params{
					N:         n,
					Seed:      int64(1000 + i),
					Config:    core.DefaultConfig(),
					MaxCycles: 60,
				})
				cycles += float64(res.ConvergedAt + 1)
				leafAt += float64(firstPerfect(res, func(pt experiment.Point) bool { return pt.LeafMissing == 0 }) + 1)
				prefixAt += float64(firstPerfect(res, func(pt experiment.Point) bool { return pt.PrefixMissing == 0 }) + 1)
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
			b.ReportMetric(leafAt/float64(b.N), "leaf-cycles")
			b.ReportMetric(prefixAt/float64(b.N), "prefix-cycles")
		})
	}
}

// BenchmarkFig4Convergence reproduces Figure 4: bootstrap under 20%
// uniform message drop. The paper's observation: same shape as Figure 3,
// convergence slowed proportionally.
func BenchmarkFig4Convergence(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res := runToConvergence(b, experiment.Params{
					N:         n,
					Seed:      int64(2000 + i),
					Config:    core.DefaultConfig(),
					Drop:      0.2,
					MaxCycles: 90,
				})
				cycles += float64(res.ConvergedAt + 1)
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
		})
	}
}

// BenchmarkChurn reproduces the Section 5 prose claim that the protocol is
// not sensitive to churn: 1% of the network is replaced per cycle for the
// first 20 cycles. Metrics: residual missing proportions after recovery.
func BenchmarkChurn(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var leaf, prefix float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(experiment.Params{
					N:                       n,
					Seed:                    int64(3000 + i),
					Config:                  core.DefaultConfig(),
					MaxCycles:               50,
					Churn:                   experiment.Churn{Rate: 0.01, StartCycle: 0, StopCycle: 20},
					KeepRunningAfterPerfect: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				leaf += res.Final().LeafMissing
				prefix += res.Final().PrefixMissing
			}
			b.ReportMetric(leaf/float64(b.N), "final-leaf-missing")
			b.ReportMetric(prefix/float64(b.N), "final-prefix-missing")
		})
	}
}

// BenchmarkPairLoss reproduces the Section 5 analysis: with 20% uniform
// drop and request/answer pairs, the expected overall message loss is 28%.
func BenchmarkPairLoss(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.Params{
			N:         512,
			Seed:      int64(4000 + i),
			Config:    core.DefaultConfig(),
			Drop:      0.2,
			MaxCycles: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		st := res.Stats
		// An exchange should carry 2 messages (request + answer), but
		// answers to dropped requests are never sent, so Sent counts
		// (2-p) messages per request at drop rate p. Reconstruct the
		// intended traffic and compare what was actually delivered;
		// the paper's analysis predicts 28% of it lost at p=0.2.
		const p = 0.2
		requests := float64(st.Sent) / (2 - p)
		loss += 1 - float64(st.Delivered)/(2*requests)
	}
	b.ReportMetric(loss/float64(b.N), "message-loss")
}

// BenchmarkScaling reproduces the logarithmic-convergence claim (E7):
// doubling N four-fold adds roughly a constant number of cycles.
func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res := runToConvergence(b, experiment.Params{
					N:         n,
					Seed:      int64(5000 + i),
					Config:    core.DefaultConfig(),
					MaxCycles: 60,
				})
				cycles += float64(res.ConvergedAt + 1)
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
		})
	}
}

// BenchmarkAblationFeedback quantifies the paper's "the two components
// mutually boost each other" design claim (A1): the same run with the
// prefix-table feedback removed from message construction.
func BenchmarkAblationFeedback(b *testing.B) {
	const n = 1 << 12
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"full", false}, {"no-feedback", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var cycles, finalPrefix float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.DisablePrefixFeedback = variant.disable
				res, err := experiment.Run(experiment.Params{
					N:         n,
					Seed:      int64(6000 + i),
					Config:    cfg,
					MaxCycles: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergedAt >= 0 {
					cycles += float64(res.ConvergedAt + 1)
				} else {
					cycles += float64(res.Params.MaxCycles) // censored
				}
				finalPrefix += res.Final().PrefixMissing
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
			b.ReportMetric(finalPrefix/float64(b.N), "final-prefix-missing")
		})
	}
}

// BenchmarkAblationSamples sweeps cr, the number of fresh random samples
// per message (A2).
func BenchmarkAblationSamples(b *testing.B) {
	const n = 1 << 12
	for _, cr := range []int{0, 10, 30, 100} {
		b.Run(fmt.Sprintf("cr=%d", cr), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.CR = cr
				res, err := experiment.Run(experiment.Params{
					N:         n,
					Seed:      int64(7000 + i),
					Config:    cfg,
					MaxCycles: 80,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergedAt >= 0 {
					cycles += float64(res.ConvergedAt + 1)
				} else {
					cycles += float64(res.Params.MaxCycles)
				}
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
		})
	}
}

// BenchmarkBaselineChord runs the Chord ring+finger bootstrap (A3) with
// the same gossip budget, for comparison against BenchmarkFig3Convergence.
func BenchmarkBaselineChord(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunChord(experiment.ChordParams{
					N:         n,
					Seed:      int64(8000 + i),
					Config:    chord.DefaultConfig(),
					MaxCycles: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergedAt < 0 {
					b.Fatal("chord baseline did not converge")
				}
				cycles += float64(res.ConvergedAt + 1)
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
		})
	}
}

// BenchmarkSamplerChoice compares the oracle sampling layer against a live
// NEWSCAST layer under the bootstrap protocol (A4), validating the paper's
// assumption that a real sampling implementation is good enough.
func BenchmarkSamplerChoice(b *testing.B) {
	const n = 1 << 10
	for _, s := range []experiment.SamplerKind{experiment.SamplerOracle, experiment.SamplerNewscast} {
		b.Run(s.String(), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res := runToConvergence(b, experiment.Params{
					N:            n,
					Seed:         int64(9000 + i),
					Config:       core.DefaultConfig(),
					MaxCycles:    60,
					Sampler:      s,
					WarmupCycles: 10,
				})
				cycles += float64(res.ConvergedAt + 1)
			}
			b.ReportMetric(cycles/float64(b.N), "cycles")
		})
	}
}

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

func BenchmarkLeafSetUpdate(b *testing.B) {
	descs, _ := benchWorld(4096, 1)
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	batch := make([]peer.Descriptor, 60)
	ls := core.NewLeafSet(descs[0].ID, cfg.C)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = descs[rng.Intn(len(descs))]
		}
		ls.Update(batch)
	}
}

func BenchmarkPrefixTableAdd(b *testing.B) {
	descs, _ := benchWorld(4096, 3)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := core.NewPrefixTable(descs[0].ID, cfg.B, cfg.K)
		pt.AddAll(descs[1:])
	}
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

// BenchmarkRunTrials measures the multi-trial experiment runner at
// increasing worker counts over a fixed seed set, recording the parallel
// speedup of independent-seed campaigns.
func BenchmarkRunTrials(b *testing.B) {
	seeds := experiment.Seeds(42, 8)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunTrials(experiment.Params{
					N:         512,
					Config:    core.DefaultConfig(),
					MaxCycles: 40,
				}, seeds, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergedTrials() != len(seeds) {
					b.Fatal("trial failed to converge")
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

func BenchmarkPastryRoute(b *testing.B) {
	descs, _ := benchWorld(2048, 9)
	cfg := core.DefaultConfig()
	routers := make([]*pastry.Router, len(descs))
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(descs)
		routers[i] = pastry.New(d, ls, pt, cfg.B)
	}
	mesh := pastry.NewMesh(routers, 0)
	rng := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Route(descs[rng.Intn(len(descs))].Addr, id.ID(rng.Uint64())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewscastCycle(b *testing.B) {
	const n = 1024
	net := simnet.New(simnet.Config{Seed: 14})
	descs, _ := benchWorld(n, 15)
	protos := make([]*newscast.Protocol, n)
	for i := range descs {
		descs[i].Addr = net.AddNode()
		protos[i] = newscast.New(descs[i], descs[:5], newscast.DefaultViewSize)
		if err := net.Attach(descs[i].Addr, newscast.ProtoID, protos[i], 10, int64(i%10)); err != nil {
			b.Fatal(err)
		}
	}
	net.Run(100) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(net.Now() + 10)
	}
}

func firstPerfect(res *experiment.Result, pred func(experiment.Point) bool) int {
	for _, pt := range res.Points {
		if pred(pt) {
			return pt.Cycle
		}
	}
	return res.Params.MaxCycles
}

// BenchmarkMassJoin doubles the network at cycle 10 (the paper's
// motivating massive-join scenario) and reports the cycles from join to
// renewed perfection.
func BenchmarkMassJoin(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var recovery float64
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(experiment.Params{
					N:         n,
					Seed:      int64(11000 + i),
					Config:    core.DefaultConfig(),
					MaxCycles: 60,
					Join:      experiment.Join{Cycle: 10, Count: n},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergedAt < 0 {
					b.Fatal("no reconvergence after mass join")
				}
				recovery += float64(res.ConvergedAt - 10 + 1)
			}
			b.ReportMetric(recovery/float64(b.N), "recovery-cycles")
		})
	}
}

// BenchmarkChurnEviction compares the post-churn residual of the
// paper-faithful protocol against the eviction extension (failure
// detector + tombstones + death certificates).
func BenchmarkChurnEviction(b *testing.B) {
	for _, variant := range []struct {
		name  string
		evict int
	}{{"paper", 0}, {"evict=2", 2}} {
		b.Run(variant.name, func(b *testing.B) {
			var leaf, prefix float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.EvictAfterMisses = variant.evict
				res, err := experiment.Run(experiment.Params{
					N:                       1 << 10,
					Seed:                    int64(12000 + i),
					Config:                  cfg,
					MaxCycles:               50,
					Churn:                   experiment.Churn{Rate: 0.01, StartCycle: 0, StopCycle: 20},
					KeepRunningAfterPerfect: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				leaf += res.Final().LeafMissing
				prefix += res.Final().PrefixMissing
			}
			b.ReportMetric(leaf/float64(b.N), "final-leaf-missing")
			b.ReportMetric(prefix/float64(b.N), "final-prefix-missing")
		})
	}
}

// BenchmarkDHTPutGet measures the application layer over perfect tables.
func BenchmarkDHTPutGet(b *testing.B) {
	const n = 1024
	descs, _ := benchWorld(n, 21)
	cfg := core.DefaultConfig()
	nodes := make([]*dht.Node, n)
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(descs)
		nodes[i] = dht.NewNode(pastry.New(d, ls, pt, cfg.B))
	}
	cluster := dht.NewCluster(nodes, 3)
	rng := rand.New(rand.NewSource(22))
	val := []byte("benchmark-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := id.ID(rng.Uint64())
		if _, err := cluster.Put(descs[rng.Intn(n)].Addr, key, val); err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Get(descs[rng.Intn(n)].Addr, key); err != nil {
			b.Fatal(err)
		}
	}
}
