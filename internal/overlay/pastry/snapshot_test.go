package pastry

import (
	"testing"

	"repro/internal/coord"
	"repro/internal/id"
	"repro/internal/peer"
)

// TestSnapshotNextHopMatchesRouter: with a nil filter, NextHopAlive must
// agree hop-for-hop with referenceNextHop over the live structures for
// every (start, key), both with no proximity metric and with one.
func TestSnapshotNextHopMatchesRouter(t *testing.T) {
	const n = 128
	routers, _, _ := perfectRouters(t, n, 11)
	keys := id.Unique(200, 12)
	space := coord.NewRandomSpace(n, 13, 100)
	for _, pass := range []struct {
		name string
		prox Proximity
	}{{"plain", nil}, {"proximity", space.Latency}} {
		for i, r := range routers {
			snap := r.WithProximity(pass.prox).Snapshot()
			for _, key := range keys {
				wantNext, wantDone := referenceNextHop(r, key)
				gotNext, gotDone := snap.NextHopAlive(key, r.Self().Addr, nil)
				if wantDone != gotDone || wantNext.ID != gotNext.ID {
					t.Fatalf("%s: router %d key %s: snapshot hop (%s, %v) != reference hop (%s, %v)",
						pass.name, i, key, gotNext, gotDone, wantNext, wantDone)
				}
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
	// Prefix rule: extend the common prefix by one digit, choosing the
	// proximally closest slot entry when a metric is installed.
	row := id.CommonPrefixLen(r.self.ID, key, r.b)
	col := key.Digit(row, r.b)
	if slot := r.table.Get(row, col); len(slot) > 0 {
		best := slot[0]
		if r.prox != nil {
			for _, d := range slot[1:] {
				if r.prox(r.self.Addr, d.Addr) < r.prox(r.self.Addr, best.Addr) {
					best = d
				}
			}
		}
		return best, false
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
