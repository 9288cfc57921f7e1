package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// TestMassiveJoin: bootstrap N nodes, then N more join simultaneously —
// the paper's motivating scenario ("massive joins to a large overlay
// network are not supported by known protocols very well"). The doubled
// network must reconverge to perfection within a few more cycles.
func TestMassiveJoin(t *testing.T) {
	p := smallParams(128, 21)
	p.MaxCycles = 50
	p.Join = Join{Cycle: 15, Count: 128}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("doubled network did not reconverge; final %+v", res.Final())
	}
	if got := res.Final().Alive; got != 256 {
		t.Errorf("alive = %d, want 256", got)
	}
	// The join must be visible as a quality dip at cycle 15.
	if res.Points[15].PrefixMissing == 0 {
		t.Error("join left no trace in the metrics — suspicious")
	}
	// Reconvergence should take roughly as long as a fresh bootstrap of
	// the doubled size, not dramatically longer.
	if res.ConvergedAt > 15+25 {
		t.Errorf("reconvergence at cycle %d, want within ~25 cycles of the join", res.ConvergedAt)
	}
}

func TestJoinValidation(t *testing.T) {
	p := smallParams(16, 1)
	p.Join = Join{Cycle: -1, Count: 5}
	if err := p.Validate(); err == nil {
		t.Error("negative join cycle accepted")
	}
	p.Join = Join{Cycle: 1, Count: -5}
	if err := p.Validate(); err == nil {
		t.Error("negative join count accepted")
	}
}

// switchableSampler redirects sample draws to the current backing
// service; the test flips it from a partition-local oracle to the global
// one when the partition heals, modelling the sampling layer's own merge.
type switchableSampler struct {
	svc sampling.Service
}

func (s *switchableSampler) Sample(n int) []peer.Descriptor { return s.svc.Sample(n) }

func (s *switchableSampler) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	return s.svc.AppendSample(dst, n)
}

// TestPartitionHealing: a network bootstraps while partitioned into two
// halves — each with its own (partition-local) sampling membership — and
// each side converges on its own ring. When the partition heals and the
// sampling layers merge, the two rings must fuse into one perfect
// overlay without restarting the protocol.
func TestPartitionHealing(t *testing.T) {
	const n = 128
	cfg := core.DefaultConfig()
	net := simnet.New(simnet.Config{Seed: 31})
	ids := id.Unique(n, 32)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	var descs1, descs2 []peer.Descriptor
	for i, d := range descs {
		if i%2 == 0 {
			descs1 = append(descs1, d)
		} else {
			descs2 = append(descs2, d)
		}
	}
	oracle1 := sampling.NewOracle(descs1, 33)
	oracle2 := sampling.NewOracle(descs2, 34)
	global := sampling.NewOracle(descs, 35)
	samplers := make([]*switchableSampler, n)
	nodes := make([]*core.Node, n)
	for i, d := range descs {
		if i%2 == 0 {
			samplers[i] = &switchableSampler{svc: oracle1}
		} else {
			samplers[i] = &switchableSampler{svc: oracle2}
		}
		nd, err := core.NewNode(d, cfg, samplers[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, core.ProtoID, nd, cfg.Delta, int64(i)%cfg.Delta); err != nil {
			t.Fatal(err)
		}
	}
	// Cut the network into the same two halves before anything starts.
	half1 := make([]peer.Addr, 0, n/2)
	half2 := make([]peer.Addr, 0, n/2)
	for i, d := range descs {
		if i%2 == 0 {
			half1 = append(half1, d.Addr)
		} else {
			half2 = append(half2, d.Addr)
		}
	}
	net.Partition(half1, half2)
	net.Run(cfg.Delta * 20)

	// While partitioned, nobody can be globally perfect: each side
	// misses the other side's ring neighbours.
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]truth.Member, n)
	for i, nd := range nodes {
		members[i] = truth.Member{Self: descs[i].ID, Leaf: nd.Leaf(), Table: nd.Table()}
	}
	if tr.MeasureAll(members, 1).LeafMissing == 0 {
		t.Fatal("partitioned network reached global perfection — partition ineffective")
	}

	// Heal: links reopen and the sampling layers merge.
	net.SetLinkFault(nil)
	for _, s := range samplers {
		s.svc = global
	}
	net.Run(net.Now() + cfg.Delta*25)
	for i, m := range members {
		agg := tr.MeasureAll([]truth.Member{m}, 1)
		if agg.LeafMissing != 0 {
			t.Fatalf("node %d leaf set still imperfect %d cycles after healing", i, 25)
		}
		if agg.PrefixMissing != 0 {
			t.Fatalf("node %d prefix table still imperfect after healing", i)
		}
	}
}

// TestClusteredIDs: the paper argues prefix tables are "independent of ID
// distribution". Bootstrap a network whose IDs all share a long common
// prefix (a pathological, highly clustered distribution) and check it
// still converges to perfection.
func TestClusteredIDs(t *testing.T) {
	const n = 128
	ids := make([]id.ID, n)
	gen := id.NewGenerator(77)
	for i := range ids {
		// All IDs inside one 1/2^16 sliver of the space: the first
		// four hex digits are fixed.
		ids[i] = 0xABCD000000000000 | (gen.Next() >> 16)
	}
	p := smallParams(n, 78)
	p.IDs = ids
	p.MaxCycles = 40
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Fatalf("clustered-ID network did not converge; final %+v", res.Final())
	}
}

func TestExplicitIDsValidation(t *testing.T) {
	p := smallParams(10, 1)
	p.IDs = []id.ID{1, 2, 3}
	if err := p.Validate(); err == nil {
		t.Error("mismatched IDs length accepted")
	}
}

// TestChurnEvictionImproves: the failure-detector extension
// (EvictAfterMisses) reclaims slots occupied by departed nodes, so the
// post-churn residual must be strictly better than the paper-faithful
// protocol's and the structures should approach perfection again.
func TestChurnEvictionImproves(t *testing.T) {
	base := smallParams(128, 44)
	base.MaxCycles = 60
	base.KeepRunningAfterPerfect = true
	base.Churn = Churn{Rate: 0.02, StartCycle: 2, StopCycle: 8}

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withEvict := base
	withEvict.Config.EvictAfterMisses = 2
	evict, err := Run(withEvict)
	if err != nil {
		t.Fatal(err)
	}
	pf, ef := plain.Final(), evict.Final()
	if ef.PrefixMissing >= pf.PrefixMissing && pf.PrefixMissing > 0 {
		t.Errorf("eviction did not improve prefix residual: %.4f vs %.4f", ef.PrefixMissing, pf.PrefixMissing)
	}
	if ef.PrefixDead > pf.PrefixDead {
		t.Errorf("eviction left more dead entries: %d vs %d", ef.PrefixDead, pf.PrefixDead)
	}
	// Residuals are noisy (tombstones expire and re-infection races the
	// sweep probes) but must be a small fraction of the plain protocol's.
	if pf.PrefixMissing > 0 && ef.PrefixMissing > pf.PrefixMissing/2 {
		t.Errorf("prefix residual with eviction %.4f, want at most half of plain %.4f",
			ef.PrefixMissing, pf.PrefixMissing)
	}
	if ef.PrefixMissing > 0.05 {
		t.Errorf("prefix residual with eviction %.4f, want < 0.05", ef.PrefixMissing)
	}
	if ef.LeafMissing > 0.05 {
		t.Errorf("leaf residual with eviction %.4f, want < 0.05", ef.LeafMissing)
	}
}
