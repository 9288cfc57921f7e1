package newscast

import (
	"sort"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/simnet"
)

// buildNetwork wires n NEWSCAST nodes into a simnet. Every node starts with a
// star view: it only knows node 0 — the worst-case, fully non-random
// initialisation discussed in the paper's self-healing property.
func buildNetwork(t testing.TB, n int, cfg simnet.Config, delta int64) (*simnet.Network, []*Protocol) {
	t.Helper()
	net := simnet.New(cfg)
	ids := id.Unique(n, cfg.Seed+1000)
	protos := make([]*Protocol, n)
	descs := make([]peer.Descriptor, n)
	for i := 0; i < n; i++ {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	for i := 0; i < n; i++ {
		protos[i] = New(descs[i], []peer.Descriptor{descs[0]}, DefaultViewSize)
		offset := int64(i) * delta / int64(n) // stagger starts within one cycle
		if err := net.Attach(descs[i].Addr, ProtoID, protos[i], delta, offset); err != nil {
			t.Fatal(err)
		}
	}
	return net, protos
}

func TestViewInvariants(t *testing.T) {
	const n, delta = 200, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 3}, delta)
	net.Run(delta * 20)
	for i, p := range protos {
		view := p.View()
		if len(view) > p.ViewSize() {
			t.Fatalf("node %d view overflow: %d", i, len(view))
		}
		seen := make(map[id.ID]struct{})
		for _, d := range view {
			if d.ID == p.self.ID {
				t.Fatalf("node %d has itself in view", i)
			}
			if _, dup := seen[d.ID]; dup {
				t.Fatalf("node %d has duplicate %s", i, d)
			}
			seen[d.ID] = struct{}{}
		}
	}
}

func TestViewsFillUp(t *testing.T) {
	const n, delta = 300, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 5}, delta)
	net.Run(delta * 20)
	for i, p := range protos {
		if len(p.View()) < p.ViewSize() {
			t.Errorf("node %d view only %d/%d after 20 cycles", i, len(p.View()), p.ViewSize())
		}
	}
}

// TestRandomisesStarInit checks the self-healing property the paper relies
// on: starting from the degenerate everyone-knows-only-node-0 state, views
// quickly stop being dominated by node 0 and in-degrees even out.
func TestRandomisesStarInit(t *testing.T) {
	const n, delta = 400, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 11}, delta)
	net.Run(delta * 30)
	indeg := make(map[id.ID]int)
	for _, p := range protos {
		for _, d := range p.View() {
			indeg[d.ID]++
		}
	}
	// Node 0's in-degree must not dominate: with a converged random
	// overlay the mean in-degree is viewSize; allow generous slack.
	mean := float64(DefaultViewSize)
	if got := float64(indeg[protos[0].self.ID]); got > 10*mean {
		t.Errorf("node 0 in-degree %v still dominates (mean %v)", got, mean)
	}
	// Nearly all nodes should be represented somewhere.
	if len(indeg) < n*9/10 {
		t.Errorf("only %d/%d nodes appear in any view", len(indeg), n)
	}
}

// TestSelfHealingAfterCatastrophe reproduces the Section 3 property: after
// a massive failure (here 70% of nodes) the surviving views purge dead
// entries within a few cycles, because dead nodes stop injecting fresh
// descriptors.
func TestSelfHealingAfterCatastrophe(t *testing.T) {
	const n, delta = 500, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 13}, delta)
	net.Run(delta * 15) // converge first

	dead := make(map[id.ID]bool)
	for i := 0; i < n*7/10; i++ {
		dead[protos[i].self.ID] = true
		net.Kill(protos[i].self.Addr)
	}
	net.Run(delta * 45) // 30 more cycles

	var deadRefs, total int
	for i := n * 7 / 10; i < n; i++ {
		for _, d := range protos[i].View() {
			total++
			if dead[d.ID] {
				deadRefs++
			}
		}
	}
	frac := float64(deadRefs) / float64(total)
	if frac > 0.05 {
		t.Errorf("dead entries still %.1f%% of survivor views after 30 cycles", frac*100)
	}
}

// TestSampleApproximatelyUniform draws many small samples from one node's
// Sampler over time and checks no peer is pathologically overrepresented. NEWSCAST
// samples are not perfectly i.i.d. uniform, so the bound is loose.
func TestSampleApproximatelyUniform(t *testing.T) {
	const n, delta = 150, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 23}, delta)
	s := NewSampler(protos[7], 23)
	counts := make(map[id.ID]int)
	draws := 0
	for cycle := 0; cycle < 200; cycle++ {
		net.Run(net.Now() + delta)
		for _, d := range s.Sample(3) {
			counts[d.ID]++
			draws++
		}
	}
	mean := float64(draws) / float64(n-1)
	for nodeID, c := range counts {
		if float64(c) > mean*5 {
			t.Errorf("peer %s sampled %d times, mean %.1f — distribution badly skewed", nodeID, c, mean)
		}
	}
	if len(counts) < (n-1)/2 {
		t.Errorf("only %d distinct peers sampled over 200 cycles", len(counts))
	}
}

func TestMessageLossTolerated(t *testing.T) {
	const n, delta = 200, 10
	net, protos := buildNetwork(t, n, simnet.Config{Seed: 29, Drop: 0.2}, delta)
	net.Run(delta * 30)
	full := 0
	for _, p := range protos {
		if len(p.View()) == p.ViewSize() {
			full++
		}
	}
	if full < n*95/100 {
		t.Errorf("only %d/%d views full under 20%% loss", full, n)
	}
}

func TestWireSize(t *testing.T) {
	m := Message{Entries: make([]entry, 31)}
	if m.WireSize() != 31 {
		t.Errorf("WireSize = %d, want 31", m.WireSize())
	}
}

func TestNewExcludesSelfAndCapsView(t *testing.T) {
	self := peer.Descriptor{ID: 1, Addr: 0}
	boot := []peer.Descriptor{self}
	for i := 2; i <= 50; i++ {
		boot = append(boot, peer.Descriptor{ID: id.ID(i), Addr: peer.Addr(i)})
	}
	p := New(self, boot, 10)
	if len(p.View()) != 10 {
		t.Errorf("view len %d, want 10", len(p.View()))
	}
	for _, d := range p.View() {
		if d.ID == self.ID {
			t.Error("self in initial view")
		}
	}
}

// TestCostOneMessagePerCycle verifies the paper's cost property: each node
// sends one request per cycle, so total requests ~= n per cycle (plus one
// answer each when delivered).
func TestCostOneMessagePerCycle(t *testing.T) {
	const n, delta, cycles = 100, 10, 20
	net, _ := buildNetwork(t, n, simnet.Config{Seed: 31}, delta)
	net.Run(delta * cycles)
	sent := net.Stats().Sent
	// Requests: n per cycle. Answers: up to n per cycle. Allow the
	// boundary cycle slack.
	maxExpected := int64(2 * n * (cycles + 1))
	if sent > maxExpected {
		t.Errorf("sent %d messages, budget %d — protocol is too chatty", sent, maxExpected)
	}
	if sent < int64(n*cycles) {
		t.Errorf("sent %d messages, expected at least %d requests", sent, n*cycles)
	}
}

// mergeReference is merge as it stood before the view's order was put to
// work — a map keyed by ID, a rebuild in map order, sort.Slice, truncate —
// kept verbatim (the receiver's fields became parameters) as the definition
// FuzzMergeMatchesReference and TestMergeCases hold merge to. It returns the
// next view and leaves its arguments alone.
func mergeReference(self id.ID, viewSize int, view, received []entry) []entry {
	best := make(map[id.ID]entry, len(view)+len(received))
	for _, e := range view {
		best[e.desc.ID] = e
	}
	for _, e := range received {
		if e.desc.ID == self {
			continue
		}
		if cur, ok := best[e.desc.ID]; !ok || e.ts > cur.ts {
			best[e.desc.ID] = e
		}
	}
	view = nil
	for _, e := range best {
		view = append(view, e)
	}
	sort.Slice(view, func(i, j int) bool {
		if view[i].ts != view[j].ts {
			return view[i].ts > view[j].ts
		}
		return view[i].desc.ID < view[j].desc.ID
	})
	if len(view) > viewSize {
		view = view[:viewSize]
	}
	return view
}
