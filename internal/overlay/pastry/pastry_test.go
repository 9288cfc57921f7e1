package pastry

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// perfectRouters builds routers with perfect state for n members: every
// node's leaf set and prefix table are fed the entire membership.
func perfectRouters(t testing.TB, n int, seed int64) ([]*Router, []peer.Descriptor, *truth.Truth) {
	t.Helper()
	ids := id.Unique(n, seed)
	descs := make([]peer.Descriptor, n)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	cfg := core.DefaultConfig()
	routers := make([]*Router, n)
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(descs)
		routers[i] = New(d, ls, pt, cfg.B)
	}
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		t.Fatal(err)
	}
	return routers, descs, tr
}

// ringClosest returns the member numerically (ring) closest to key.
func ringClosest(descs []peer.Descriptor, key id.ID) peer.Descriptor {
	best := descs[0]
	for _, d := range descs[1:] {
		if id.CompareRing(key, d.ID, best.ID) < 0 {
			best = d
		}
	}
	return best
}

func TestRouteDeliversToRingClosest(t *testing.T) {
	const n = 400
	routers, descs, _ := perfectRouters(t, n, 1)
	mesh := NewMesh(routers, 0)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		key := id.ID(rng.Uint64())
		start := peer.Addr(rng.Intn(n))
		path, err := mesh.Route(start, key)
		if err != nil {
			t.Fatalf("route %s from %d: %v", key, start, err)
		}
		root := path[len(path)-1]
		want := ringClosest(descs, key)
		if root != want.Addr {
			t.Fatalf("key %s rooted at %d, want %s", key, root, want)
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	const n = 512
	routers, _, _ := perfectRouters(t, n, 3)
	mesh := NewMesh(routers, 0)
	rng := rand.New(rand.NewSource(4))
	totalHops, trials := 0, 300
	maxHops := 0
	for trial := 0; trial < trials; trial++ {
		key := id.ID(rng.Uint64())
		path, err := mesh.Route(peer.Addr(rng.Intn(n)), key)
		if err != nil {
			t.Fatal(err)
		}
		hops := len(path) - 1
		totalHops += hops
		if hops > maxHops {
			maxHops = hops
		}
	}
	mean := float64(totalHops) / float64(trials)
	bound := math.Log(float64(n))/math.Log(16) + 2 // log_2^b N + slack
	if mean > bound {
		t.Errorf("mean hops %.2f exceeds prefix-routing bound %.2f", mean, bound)
	}
	if maxHops > 8 {
		t.Errorf("max hops %d suspiciously high for n=%d", maxHops, n)
	}
}

func TestRouteToExistingIDs(t *testing.T) {
	const n = 200
	routers, descs, _ := perfectRouters(t, n, 5)
	mesh := NewMesh(routers, 0)
	for i := 0; i < 50; i++ {
		target := descs[(i*7)%n]
		path, err := mesh.Route(descs[i].Addr, target.ID)
		if err != nil {
			t.Fatal(err)
		}
		if path[len(path)-1] != target.Addr {
			t.Fatalf("lookup of member %s ended at %d", target, path[len(path)-1])
		}
	}
}

func TestNextHopSelfKey(t *testing.T) {
	routers, descs, _ := perfectRouters(t, 50, 6)
	next, done := routers[0].Snapshot().NextHopAlive(descs[0].ID, descs[0].Addr, nil)
	if !done || next.ID != descs[0].ID {
		t.Error("own key must be delivered locally")
	}
}

func TestLoneNodeOwnsEverything(t *testing.T) {
	d := peer.Descriptor{ID: 42, Addr: 0}
	cfg := core.DefaultConfig()
	r := New(d, core.NewLeafSet(d.ID, cfg.C), core.NewPrefixTable(d.ID, cfg.B, cfg.K), cfg.B)
	next, done := r.Snapshot().NextHopAlive(id.ID(999), d.Addr, nil)
	if !done || next.ID != 42 {
		t.Error("a lone node must root every key")
	}
}

func TestMeshRouteErrors(t *testing.T) {
	routers, _, _ := perfectRouters(t, 20, 7)
	mesh := NewMesh(routers, 0)
	if _, err := mesh.Route(peer.Addr(999), 1); err == nil {
		t.Error("unknown start accepted")
	}
}

// TestRoutingAfterRealBootstrap is the end-to-end claim of the paper: run
// the actual bootstrap protocol over a simulated network, then route over
// the tables it built.
func TestRoutingAfterRealBootstrap(t *testing.T) {
	const n = 128
	net := simnet.New(simnet.Config{Seed: 11})
	ids := id.Unique(n, 12)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, 13)
	cfg := core.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i, d := range descs {
		nd, err := core.NewNode(d, cfg, oracle)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, core.ProtoID, nd, cfg.Delta, int64(i)%cfg.Delta); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(cfg.Delta * 30)

	routers := make([]*Router, n)
	for i, nd := range nodes {
		routers[i] = FromBootstrap(nd)
	}
	mesh := NewMesh(routers, 0)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		key := id.ID(rng.Uint64())
		path, err := mesh.Route(descs[rng.Intn(n)].Addr, key)
		if err != nil {
			t.Fatalf("route over bootstrapped tables: %v", err)
		}
		want := ringClosest(descs, key)
		if path[len(path)-1] != want.Addr {
			t.Fatalf("key %s rooted at %d, want %s", key, path[len(path)-1], want)
		}
	}
}

// TestRoutabilityDuringBootstrap validates the paper's Section 4 remark
// that "the prefix tables — even before completed — can already fulfill a
// kind of routing function": route success over the half-built structures
// climbs steeply cycle by cycle, well before perfection.
func TestRoutabilityDuringBootstrap(t *testing.T) {
	const n = 256
	net := simnet.New(simnet.Config{Seed: 31})
	ids := id.Unique(n, 32)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, 33)
	cfg := core.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i, d := range descs {
		nd, err := core.NewNode(d, cfg, oracle)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, core.ProtoID, nd, cfg.Delta, int64(i)%cfg.Delta); err != nil {
			t.Fatal(err)
		}
	}
	routability := func() float64 {
		routers := make([]*Router, n)
		for i, nd := range nodes {
			routers[i] = FromBootstrap(nd)
		}
		mesh := NewMesh(routers, 0)
		rng := rand.New(rand.NewSource(34))
		ok := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			key := id.ID(rng.Uint64())
			path, err := mesh.Route(descs[rng.Intn(n)].Addr, key)
			if err != nil {
				continue
			}
			if path[len(path)-1] == ringClosest(descs, key).Addr {
				ok++
			}
		}
		return float64(ok) / trials
	}
	var series []float64
	for _, cycle := range []int64{2, 4, 6, 10} {
		net.Run(cfg.Delta * cycle)
		series = append(series, routability())
	}
	t.Logf("routability at cycles 2,4,6,10: %.2f %.2f %.2f %.2f",
		series[0], series[1], series[2], series[3])
	for i := 1; i < len(series); i++ {
		if series[i]+0.05 < series[i-1] {
			t.Errorf("routability regressed: %v", series)
		}
	}
	if series[len(series)-1] < 0.95 {
		t.Errorf("routability %.2f at cycle 10, want near-total", series[len(series)-1])
	}
	if series[1] < 0.30 {
		t.Errorf("routability %.2f at cycle 4 — half-built tables should already route a fair share", series[1])
	}
}
