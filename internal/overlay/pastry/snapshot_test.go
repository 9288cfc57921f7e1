package pastry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
)

// TestSnapshotNextHopMatchesRouter: with a nil filter, NextHopAlive must
// agree hop-for-hop with referenceNextHop over the live structures for
// every (start, key).
func TestSnapshotNextHopMatchesRouter(t *testing.T) {
	const n = 128
	routers, _, _ := perfectRouters(t, n, 11)
	keys := id.Unique(200, 12)
	for i, r := range routers {
		snap := r.Snapshot()
		for _, key := range keys {
			wantNext, wantDone := referenceNextHop(r, key)
			gotNext, gotDone := snap.NextHopAlive(key, r.Self().Addr, nil)
			if wantDone != gotDone || wantNext.ID != gotNext.ID {
				t.Fatalf("router %d key %s: snapshot hop (%s, %v) != reference hop (%s, %v)",
					i, key, gotNext, gotDone, wantNext, wantDone)
			}
		}
	}
}

// referenceNextHop is the former Router.NextHop, kept here as the
// reference NextHopAlive is held to: it walks the live LeafSet and
// PrefixTable instead of a snapshot, with no liveness filter.
func referenceNextHop(r *Router, key id.ID) (next peer.Descriptor, done bool) {
	if key == r.self.ID {
		return r.self, true
	}
	// Leaf set rule: if the key falls in the span covered by the leaf
	// set, the numerically closest of {leaf set, self} is the root.
	if best, in := referenceLeafRoot(r, key); in {
		if best.ID == r.self.ID {
			return r.self, true
		}
		return best, false
	}
	// Prefix rule: extend the common prefix by one digit through the
	// slot's first entry.
	row := id.CommonPrefixLen(r.self.ID, key, r.b)
	col := key.Digit(row, r.b)
	if slot := r.table.AppendSlot(nil, row, col); len(slot) > 0 {
		return slot[0], false
	}
	// Rare case: any known node closer to the key with at least as long
	// a shared prefix.
	if d, ok := referenceRareCase(r, key, row); ok {
		return d, false
	}
	// Nothing closer is known: deliver here (best effort).
	return r.self, true
}

// referenceLeafRoot reports whether key lies within the leaf set span and,
// if so, returns the numerically closest node among the leaf set and self.
func referenceLeafRoot(r *Router, key id.ID) (peer.Descriptor, bool) {
	succ := r.leaf.Successors()
	pred := r.leaf.Predecessors()
	if len(succ) == 0 && len(pred) == 0 {
		return r.self, true // alone in the world
	}
	// Span: from the farthest predecessor to the farthest successor,
	// clockwise through self.
	lo := r.self.ID
	if len(pred) > 0 {
		lo = pred[len(pred)-1].ID
	}
	hi := r.self.ID
	if len(succ) > 0 {
		hi = succ[len(succ)-1].ID
	}
	// key in [lo, hi] going clockwise from lo?
	span := id.Succ(lo, hi)
	off := id.Succ(lo, key)
	if off > span {
		return peer.Descriptor{Addr: peer.NoAddr}, false
	}
	best := r.self
	bestDist := id.RingDistance(key, r.self.ID)
	for _, d := range succ {
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, d := range pred {
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best, true
}

// referenceRareCase scans everything the node knows for a peer strictly
// closer to the key whose shared prefix with the key is at least row
// digits.
func referenceRareCase(r *Router, key id.ID, row int) (peer.Descriptor, bool) {
	selfDist := id.RingDistance(key, r.self.ID)
	best := peer.Descriptor{Addr: peer.NoAddr}
	bestDist := selfDist
	consider := func(d peer.Descriptor) {
		if id.CommonPrefixLen(d.ID, key, r.b) < row {
			return
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, d := range r.leaf.Slice() {
		consider(d)
	}
	r.table.Each(func(_, _ int, d peer.Descriptor) bool {
		consider(d)
		return true
	})
	return best, !best.Nil()
}

// referenceNextHopAlive is the former NextHopAlive, whose leafRoot scans
// both leaf lists in full, kept as the reference the binary-searching rule
// is held to under a liveness filter. It reads the prefix slots through
// referenceSlot and referenceEntries, which drop the stride padding.
func referenceNextHopAlive(s *Snapshot, key id.ID, origin peer.Addr, ok Reachable) (next peer.Descriptor, done bool) {
	if key == s.self.ID {
		return s.self, true
	}
	if best, in := referenceLeafRootAlive(s, key, origin, ok); in {
		if best.ID == s.self.ID {
			return s.self, true
		}
		return best, false
	}
	row := id.CommonPrefixLen(s.self.ID, key, s.b)
	col := key.Digit(row, s.b)
	for _, d := range referenceSlot(s, row, col) {
		if ok == nil || ok(origin, d.Addr) {
			return d, false
		}
	}
	if d, found := referenceRareCaseAlive(s, key, row, origin, ok); found {
		return d, false
	}
	return s.self, true
}

// referenceLeafRootAlive reports whether key lies within the live span of
// the leaf set and, if so, returns the closest live node among the leaf
// entries and self, scanning self, succ, pred in order.
func referenceLeafRootAlive(s *Snapshot, key id.ID, origin peer.Addr, ok Reachable) (peer.Descriptor, bool) {
	// Farthest live entry in each direction bounds the span.
	lo, hi := s.self.ID, s.self.ID
	anyLive := false
	for i := len(s.pred) - 1; i >= 0; i-- {
		if ok == nil || ok(origin, s.pred[i].Addr) {
			lo = s.pred[i].ID
			anyLive = true
			break
		}
	}
	for i := len(s.succ) - 1; i >= 0; i-- {
		if ok == nil || ok(origin, s.succ[i].Addr) {
			hi = s.succ[i].ID
			anyLive = true
			break
		}
	}
	if !anyLive {
		return s.self, true // alone in the (live) world
	}
	span := id.Succ(lo, hi)
	off := id.Succ(lo, key)
	if off > span {
		return peer.Descriptor{Addr: peer.NoAddr}, false
	}
	best := s.self
	bestDist := id.RingDistance(key, s.self.ID)
	for _, d := range s.succ {
		if ok != nil && !ok(origin, d.Addr) {
			continue
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, d := range s.pred {
		if ok != nil && !ok(origin, d.Addr) {
			continue
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best, true
}

// referenceRareCaseAlive scans everything the snapshot knows for a live
// peer strictly closer to the key whose shared prefix with the key is at
// least row digits.
func referenceRareCaseAlive(s *Snapshot, key id.ID, row int, origin peer.Addr, ok Reachable) (peer.Descriptor, bool) {
	best := peer.Descriptor{Addr: peer.NoAddr}
	bestDist := id.RingDistance(key, s.self.ID)
	consider := func(d peer.Descriptor) {
		if ok != nil && !ok(origin, d.Addr) {
			return
		}
		if id.CommonPrefixLen(d.ID, key, s.b) < row {
			return
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, d := range s.succ {
		consider(d)
	}
	for _, d := range s.pred {
		consider(d)
	}
	for _, d := range referenceEntries(s) {
		consider(d)
	}
	return best, !best.Nil()
}

// referenceSlot returns the populated entries of slot (row, col).
func referenceSlot(s *Snapshot, row, col int) []peer.Descriptor {
	slot := s.slot(row, col)
	for i, d := range slot {
		if d.Nil() {
			return slot[:i]
		}
	}
	return slot
}

// referenceEntries returns every populated slot entry in (row, col) order.
func referenceEntries(s *Snapshot) []peer.Descriptor {
	var out []peer.Descriptor
	for _, d := range s.entries {
		if !d.Nil() {
			out = append(out, d)
		}
	}
	return out
}

// refRing is a set of routers, each knowing every node, built for
// comparing NextHopAlive against referenceNextHopAlive.
type refRing struct {
	descs []peer.Descriptor
	snaps []*Snapshot
}

// gridStep spaces grid-ring IDs so that the midpoint between two
// ring-adjacent IDs is exact and ties really occur.
const gridStep = uint64(1) << 58

// newRefRing builds n routers with distinct IDs: uniform random IDs, or
// random multiples of gridStep when grid is set (n <= 64). Each router
// learns the ring in its own shuffled order, so the first-come order of
// prefix slots differs between routers.
func newRefRing(n int, grid bool, seed int64) *refRing {
	rng := rand.New(rand.NewSource(seed))
	var ids []id.ID
	if grid {
		for _, p := range rng.Perm(int(^uint64(0)/gridStep) + 1)[:n] {
			ids = append(ids, id.ID(uint64(p)*gridStep))
		}
	} else {
		ids = id.Unique(n, seed)
	}
	r := &refRing{descs: make([]peer.Descriptor, n)}
	for i, v := range ids {
		r.descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	cfg := core.DefaultConfig()
	order := slices.Clone(r.descs)
	for _, d := range r.descs {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(order)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(order)
		r.snaps = append(r.snaps, New(d, ls, pt, cfg.B).Snapshot())
	}
	return r
}

// deadFilter marks each node but keep dead with probability frac (all of
// them for frac >= 1) and returns the filter rejecting the dead.
func (r *refRing) deadFilter(frac float64, keep int, rng *rand.Rand) Reachable {
	dead := make([]bool, len(r.descs))
	for i := range dead {
		dead[i] = i != keep && (frac >= 1 || rng.Float64() < frac)
	}
	return func(_, to peer.Addr) bool { return !dead[to] }
}

// edgeKeys returns every node ID, each ID ± 1 and the antipode of each ID,
// and the exact midpoints between ring-adjacent IDs.
func (r *refRing) edgeKeys() []id.ID {
	sorted := make([]id.ID, len(r.descs))
	for i, d := range r.descs {
		sorted[i] = d.ID
	}
	slices.Sort(sorted)
	var keys []id.ID
	for i, v := range sorted {
		next := sorted[(i+1)%len(sorted)]
		keys = append(keys, v, v+1, v-1, v+id.ID(1<<63), v+id.ID(id.Succ(v, next)/2))
	}
	return keys
}

// check compares the two rules at node i for every key.
func (r *refRing) check(t *testing.T, name string, i int, ok Reachable, keys []id.ID) {
	t.Helper()
	s := r.snaps[i]
	origin := s.Self().Addr
	for _, key := range keys {
		wantNext, wantDone := referenceNextHopAlive(s, key, origin, ok)
		gotNext, gotDone := s.NextHopAlive(key, origin, ok)
		if gotNext != wantNext || gotDone != wantDone {
			t.Fatalf("%s: node %d (%s) key %s: hop (%s, %v), reference (%s, %v)",
				name, i, s.Self(), key, gotNext, gotDone, wantNext, wantDone)
		}
	}
}

// TestSnapshotNextHopAliveMatchesReference: under a liveness filter the
// binary-searching leafRoot and the fixed-stride slots must give the same
// hop as the full-scan reference — on rings from one node to many leaf
// sets, with dead sets from none to everyone but the router, for random
// keys and for keys on, next to, opposite and exactly between node IDs.
func TestSnapshotNextHopAliveMatchesReference(t *testing.T) {
	c := core.DefaultConfig().C
	for _, n := range []int{1, 2, 3, c / 2, c, c + 1, 128} {
		for _, grid := range []bool{false, true} {
			if grid && n > 64 {
				continue
			}
			seed := int64(10 * n)
			if grid {
				seed++
			}
			r := newRefRing(n, grid, seed)
			keys := append(id.Unique(100, seed+2), r.edgeKeys()...)
			rng := rand.New(rand.NewSource(seed + 3))
			for _, frac := range []float64{0, 0.1, 0.5, 1} {
				name := fmt.Sprintf("n=%d/grid=%v/dead=%v", n, grid, frac)
				for i := range r.snaps {
					var ok Reachable
					if frac > 0 {
						ok = r.deadFilter(frac, i, rng)
					}
					r.check(t, name, i, ok, keys)
				}
			}
		}
	}
}

// FuzzNextHopAliveMatchesReference drives the same comparison from
// arbitrary ring sizes, dead sets and keys.
func FuzzNextHopAliveMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint64(0), false)
	f.Add(int64(2), uint8(1), uint8(128), uint64(1)<<63, true)
	f.Add(int64(3), uint8(20), uint8(25), uint64(12345), true)
	f.Add(int64(4), uint8(39), uint8(255), ^uint64(0), false)
	f.Add(int64(5), uint8(10), uint8(60), uint64(3)<<57, true)
	f.Fuzz(func(t *testing.T, seed int64, size, dead uint8, key uint64, grid bool) {
		n := 1 + int(size)%40
		r := newRefRing(n, grid, seed)
		rng := rand.New(rand.NewSource(seed))
		i := rng.Intn(n)
		var ok Reachable
		if dead > 0 {
			ok = r.deadFilter(float64(dead)/255, i, rng)
		}
		keys := append(r.edgeKeys(), id.ID(key), id.ID(key)+id.ID(gridStep/2))
		r.check(t, "fuzz", i, ok, keys)
	})
}

// TestNextHopAliveFilterChangesMidHop: the filter may reject a peer it
// accepted a moment earlier in the same hop (the peer departed or was cut
// off while the route was running). A span end that is live when the span
// is tested and dead when the neighbours are compared must not send the
// outward walk past the end of its leaf list; the hop falls back to the
// inner neighbour.
func TestNextHopAliveFilterChangesMidHop(t *testing.T) {
	r := newRefRing(128, false, 17)
	s := r.snaps[0]
	succ, pred := s.Leaf()
	for _, tc := range []struct {
		name       string
		far, inner peer.Descriptor
		key        id.ID
	}{
		{"succ", succ[len(succ)-1], succ[len(succ)-2], succ[len(succ)-1].ID - 1},
		{"pred", pred[len(pred)-1], pred[len(pred)-2], pred[len(pred)-1].ID + 1},
	} {
		calls := 0
		ok := func(_, to peer.Addr) bool {
			if to != tc.far.Addr {
				return true
			}
			calls++
			return calls == 1
		}
		next, done := s.NextHopAlive(tc.key, s.Self().Addr, ok)
		if next != tc.inner || done {
			t.Errorf("%s: hop (%s, %v), want the inner neighbour %s", tc.name, next, done, tc.inner)
		}
		if calls < 2 {
			t.Errorf("%s: the far end was consulted %d times; the case needs a second look", tc.name, calls)
		}
	}
}

// TestSnapshotImmutable: repairing the router must not change an already
// captured snapshot's view.
func TestSnapshotImmutable(t *testing.T) {
	routers, descs, _ := perfectRouters(t, 64, 13)
	r := routers[0]
	snap := r.Snapshot()
	beforeSucc, beforePred := snap.Leaf()
	nSucc, nPred := len(beforeSucc), len(beforePred)
	first := beforeSucc[0]

	// Scrub the closest successor from the live structures.
	r.Repair(first.ID, descs[:0])

	afterSucc, afterPred := snap.Leaf()
	if len(afterSucc) != nSucc || len(afterPred) != nPred || afterSucc[0] != first {
		t.Fatal("repair mutated a captured snapshot")
	}
	fresh := r.Snapshot()
	fs, _ := fresh.Leaf()
	for _, d := range fs {
		if d.ID == first.ID {
			t.Fatal("repaired router still lists the departed peer")
		}
	}
}

// TestSnapshotRoutesAroundDead: with a filter rejecting a victim, no hop
// may ever land on it, and routes must still terminate at a live root.
func TestSnapshotRoutesAroundDead(t *testing.T) {
	routers, descs, _ := perfectRouters(t, 256, 14)
	snaps := make([]*Snapshot, len(routers))
	byAddr := make(map[peer.Addr]int, len(routers))
	for i, r := range routers {
		snaps[i] = r.Snapshot()
		byAddr[r.Self().Addr] = i
	}
	dead := map[peer.Addr]bool{descs[7].Addr: true, descs[99].Addr: true, descs[200].Addr: true}
	alive := func(_, to peer.Addr) bool { return !dead[to] }

	keys := id.Unique(100, 15)
	for _, key := range keys {
		cur := 0
		if dead[descs[cur].Addr] {
			cur = 1
		}
		for hops := 0; ; hops++ {
			if hops > 64 {
				t.Fatalf("key %s: no termination", key)
			}
			next, done := snaps[cur].NextHopAlive(key, descs[0].Addr, alive)
			if done {
				if dead[snaps[cur].Self().Addr] {
					t.Fatalf("key %s delivered at dead node", key)
				}
				break
			}
			if dead[next.Addr] {
				t.Fatalf("key %s: hop to dead node %s", key, next)
			}
			cur = byAddr[next.Addr]
		}
	}
}

// TestRepairRefillsLeafSet: after a neighbour departs, Repair with the
// departed node's neighborhood must both scrub the victim and keep the
// leaf set full.
func TestRepairRefillsLeafSet(t *testing.T) {
	routers, _, _ := perfectRouters(t, 128, 16)
	r := routers[0]
	victim := r.Snapshot().succ[0]
	vi := -1
	for i, rr := range routers {
		if rr.Self().ID == victim.ID {
			vi = i
		}
	}
	if vi < 0 {
		t.Fatal("victim not found")
	}
	before := r.leaf.Len()
	vs := routers[vi].Snapshot()
	cand := append(append([]peer.Descriptor{}, vs.succ...), vs.pred...)
	r.Repair(victim.ID, cand)
	if r.leaf.Contains(victim.ID) {
		t.Fatal("victim survives in leaf set after Repair")
	}
	if got := r.leaf.Len(); got < before {
		t.Fatalf("leaf set shrank after Repair: %d -> %d (candidates should refill)", before, got)
	}
}
