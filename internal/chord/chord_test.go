package chord

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// TestConfigValidate: NewNode checks its configuration with
// core.Config.Validate, so a ring parameter the bootstrap service would
// reject is rejected here too.
func TestConfigValidate(t *testing.T) {
	self := peer.Descriptor{ID: 1, Addr: 0}
	if _, err := NewNode(self, core.DefaultConfig(), sampling.Fixed(nil)); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for i, mut := range []func(*core.Config){
		func(c *core.Config) { c.C = 1 },
		func(c *core.Config) { c.C = 3 },
		func(c *core.Config) { c.CR = -1 },
		func(c *core.Config) { c.Delta = 0 },
	} {
		cfg := core.DefaultConfig()
		mut(&cfg)
		if _, err := NewNode(self, cfg, sampling.Fixed(nil)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	self := peer.Descriptor{ID: 1, Addr: 0}
	if _, err := NewNode(self, core.Config{}, sampling.Fixed(nil)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewNode(self, core.DefaultConfig(), nil); err == nil {
		t.Error("nil sampler accepted")
	}
}

func TestFingerTarget(t *testing.T) {
	n, err := NewNode(peer.Descriptor{ID: 100, Addr: 0}, core.DefaultConfig(), sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	if n.FingerTarget(0) != 101 {
		t.Errorf("finger 0 target = %d, want 101", n.FingerTarget(0))
	}
	if n.FingerTarget(3) != 108 {
		t.Errorf("finger 3 target = %d, want 108", n.FingerTarget(3))
	}
	// Wraparound at the top bit.
	if n.FingerTarget(63) != id.ID(100+uint64(1)<<63) {
		t.Error("finger 63 target wrong")
	}
}

func TestImproveFingers(t *testing.T) {
	n, err := NewNode(peer.Descriptor{ID: 0, Addr: 0}, core.DefaultConfig(), sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	far := peer.Descriptor{ID: 1000, Addr: 1}
	near := peer.Descriptor{ID: 10, Addr: 2}
	n.absorb([]peer.Descriptor{far})
	if n.Finger(0).ID != 1000 {
		t.Error("empty finger should take any candidate")
	}
	n.absorb([]peer.Descriptor{near})
	// Finger 0 targets 1: 10 is closer clockwise than 1000.
	if n.Finger(0).ID != 10 {
		t.Errorf("finger 0 = %s, want 10", n.Finger(0))
	}
	// Finger 10 targets 1024: 10 would wrap nearly all the way around,
	// 1000 also precedes 1024... both wrap; closest clockwise from 1024
	// is the smaller wrap distance. Succ(1024, 10) ~ 2^64-1014;
	// Succ(1024, 1000) ~ 2^64-24: 1000 wins? No: Succ(1024,1000) =
	// 1000-1024 mod 2^64 = 2^64-24, Succ(1024,10) = 2^64-1014. 10 wins.
	if n.Finger(10).ID != 10 {
		t.Errorf("finger 10 = %s, want 10", n.Finger(10))
	}
}

// buildChordNetwork runs the Chord bootstrap over a simnet and returns the
// nodes, their descriptors and the ground truth over their IDs.
func buildChordNetwork(t testing.TB, n int, seed int64, cycles int64) ([]*Node, []peer.Descriptor, *truth.Truth) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: seed})
	ids := id.Unique(n, seed+100)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, seed+200)
	cfg := core.DefaultConfig()
	nodes := make([]*Node, n)
	for i, d := range descs {
		nd, err := NewNode(d, cfg, oracle)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, ProtoID, nd, cfg.Delta, int64(i)%cfg.Delta); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(cfg.Delta * cycles)
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, descs, tr
}

// fingerErrors counts the fingers of nodes that are not the true successor
// of their target, out of all of them.
func fingerErrors(tr *truth.Truth, nodes []*Node) (wrong, total int) {
	for _, n := range nodes {
		for i := 0; i < NumFingers; i++ {
			total++
			if f := n.Finger(i); f.Nil() || f.ID != tr.Successor(n.FingerTarget(i)) {
				wrong++
			}
		}
	}
	return wrong, total
}

// TestChordBootstrapConverges: fingers converge to ground truth within a
// logarithmic number of cycles — the property of "Chord on demand" that
// the paper builds on.
func TestChordBootstrapConverges(t *testing.T) {
	nodes, _, tr := buildChordNetwork(t, 256, 1, 30)
	wrong, total := fingerErrors(tr, nodes)
	if wrong != 0 {
		t.Errorf("%d/%d fingers still wrong after 30 cycles", wrong, total)
	}
}

func TestChordLeafConverges(t *testing.T) {
	nodes, descs, _ := buildChordNetwork(t, 128, 2, 30)
	// Every node must know its immediate successor: the member with the
	// smallest clockwise distance.
	for i, n := range nodes {
		wantSucc := descs[0].ID
		bestDist := ^uint64(0)
		for _, d := range descs {
			if d.ID == n.Self().ID {
				continue
			}
			if dist := id.Succ(n.Self().ID, d.ID); dist < bestDist {
				bestDist = dist
				wantSucc = d.ID
			}
		}
		succ := n.Leaf().Successors()
		if len(succ) == 0 || succ[0].ID != wantSucc {
			t.Fatalf("node %d: first successor wrong", i)
		}
	}
}

// TestChordRouting: greedy finger routing reaches the key's true root in
// O(log N) hops.
func TestChordRouting(t *testing.T) {
	const n = 256
	nodes, _, tr := buildChordNetwork(t, n, 3, 30)
	byAddr := make(map[peer.Addr]*Node, n)
	for _, nd := range nodes {
		byAddr[nd.Self().Addr] = nd
	}
	rng := rand.New(rand.NewSource(4))
	totalHops := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		key := id.ID(rng.Uint64())
		cur := nodes[rng.Intn(n)]
		hops := 0
		for ; hops < 64; hops++ {
			next, done := cur.NextHop(key)
			if done {
				break
			}
			nxt, ok := byAddr[next.Addr]
			if !ok {
				t.Fatalf("hop to unknown node %s", next)
			}
			cur = nxt
		}
		if root := tr.Successor(key); cur.Self().ID != root {
			t.Fatalf("key %s delivered to %s, want %s", key, cur.Self().ID, root)
		}
		totalHops += hops
	}
	if mean := float64(totalHops) / trials; mean > 10 {
		t.Errorf("mean hops %.1f too high for n=%d", mean, n)
	}
}

func TestWireSize(t *testing.T) {
	m := Message{Entries: make([]peer.Descriptor, 7)}
	if m.WireSize() != 8 {
		t.Errorf("WireSize = %d, want 8", m.WireSize())
	}
}

func TestHandleIgnoresForeignMessages(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	d := peer.Descriptor{ID: 5, Addr: net.AddNode()}
	nd, err := NewNode(d, core.DefaultConfig(), sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(d.Addr, ProtoID, nd, 10, 0); err != nil {
		t.Fatal(err)
	}
	net.Send(0, d.Addr, ProtoID, 12345)
	net.Run(50) // must not panic
}
