package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/id"
	"repro/internal/peer"
)

// LeafSet holds a node's nearest neighbours in the ring of IDs: up to c/2
// closest successors and c/2 closest predecessors, the selection rule of
// the paper's UpdateLeafSet. When one direction cannot supply c/2 nodes,
// the set is topped up with the closest nodes from the other direction, so
// the set holds min(c, |known peers|) entries.
//
// Storage: both directions live in one capacity-c block — drawn from the
// network's DescriptorArena when one is configured — with succ and pred as
// views into it, so a leaf set costs a single allocation that churn can
// recycle whole (see peer.DescriptorArena for the ownership rules).
type LeafSet struct {
	self  id.ID
	c     int
	arena *peer.DescriptorArena
	block []peer.Descriptor // cap-c backing; succ and pred alias into it
	succ  []peer.Descriptor // ascending clockwise distance from self
	pred  []peer.Descriptor // ascending counter-clockwise distance from self
	// version advances on every change to the contents (see Version).
	version uint64
}

// NewLeafSet returns an empty heap-backed leaf set of capacity c for the
// given node.
func NewLeafSet(self id.ID, c int) *LeafSet {
	return NewLeafSetIn(nil, self, c)
}

// NewLeafSetIn returns an empty leaf set whose storage is drawn from the
// given arena (nil for plain heap allocation).
func NewLeafSetIn(arena *peer.DescriptorArena, self id.ID, c int) *LeafSet {
	return &LeafSet{self: self, c: c, arena: arena}
}

// leafScratch holds the runs one Update builds, per direction (successors,
// predecessors). The pool is shared by every leaf set in the process (all
// updates run serialised per node; concurrent nodes draw distinct objects
// from the pool), which turns what would otherwise be per-node retained
// scratch into a handful of objects.
type leafScratch struct {
	run [2][]peer.Descriptor
}

var leafScratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// Update merges the given descriptors into the leaf set and re-applies the
// selection rule. The node's own descriptor and duplicates are ignored: an
// ID the set holds keeps its descriptor, and of one offered twice the first
// copy wins. It reports whether the kept set changed.
//
// A full set first turns away the candidates that cannot change it: a
// direction holding its share of a contested set — c/2 predecessors,
// c − c/2 successors, who get the odd slot — keeps that count whatever
// arrives, so it admits only IDs strictly closer than its farthest entry;
// a direction holding less has borrowed the other's slots and admits
// anything. No set admits an ID it already holds. When nothing is admitted
// nothing changes, and the call returns without merging. (DESIGN.md has
// the proof.) Each admitted candidate is inserted, in the order offered,
// into a copy of its direction's kept run, which is ordered by distance
// already: an insertion-sort merge that never sorts the kept entries.
func (l *LeafSet) Update(ds []peer.Descriptor) bool {
	// Per direction, the directed distance an admitted ID is under.
	succLim, predLim := uint64(math.MaxUint64), uint64(math.MaxUint64)
	if half := l.c / 2; half > 0 && l.Len() == l.c {
		if n := len(l.succ); n >= l.c-half {
			succLim = id.Succ(l.self, l.succ[n-1].ID)
		}
		if n := len(l.pred); n >= half {
			predLim = id.Pred(l.self, l.pred[n-1].ID)
		}
	}
	var sc *leafScratch
	for _, d := range ds {
		// The candidate's side is a coin flip to the branch predictor,
		// so the distance and limit are selected, not branched on.
		// cw ≤ ccw: a successor (id.IsSuccessor) — or self, skipped
		// below.
		cw, ccw := id.Succ(l.self, d.ID), id.Pred(l.self, d.ID)
		dist, lim := cw, succLim
		if cw > ccw {
			dist, lim = ccw, predLim
		}
		if dist >= lim {
			continue
		}
		side, kept := 0, l.succ
		if cw > ccw {
			side, kept = 1, l.pred
		}
		if d.ID == l.self || containsID(kept, d.ID) {
			continue
		}
		if sc == nil {
			sc = leafScratchPool.Get().(*leafScratch)
			sc.run[0] = append(sc.run[0][:0], l.succ...)
			sc.run[1] = append(sc.run[1][:0], l.pred...)
		}
		sc.run[side] = l.insert(sc.run[side], side, d, dist)
	}
	if sc == nil {
		return false
	}
	defer leafScratchPool.Put(sc)
	nSucc, nPred := LeafShares(len(sc.run[0]), len(sc.run[1]), l.c)
	succ, pred := sc.run[0][:nSucc], sc.run[1][:nPred]
	if sameIDs(succ, l.succ) && sameIDs(pred, l.pred) {
		return false
	}
	// nSucc+nPred ≤ c, so both directions fit the single capacity-c
	// block; the runs are scratch, so overwriting the block is safe.
	if l.block == nil {
		l.block = l.arena.Get(l.c)
	}
	blk := append(append(l.block[:0], succ...), pred...)
	l.succ = blk[0:nSucc:nSucc]
	l.pred = blk[nSucc : nSucc+nPred : nSucc+nPred]
	l.version++
	return true
}

// insert puts d, at distance dist from self along direction side (0
// clockwise, 1 counter-clockwise), into run, which is ordered by that
// distance and holds at most c entries, and keeps it so. Distances along
// one direction are distinct for distinct IDs, so an entry at d's distance
// is d's ID, offered or kept earlier, and stays; an entry pushed past c
// drops off.
func (l *LeafSet) insert(run []peer.Descriptor, side int, d peer.Descriptor, dist uint64) []peer.Descriptor {
	i, found := slices.BinarySearchFunc(run, dist, func(e peer.Descriptor, dist uint64) int {
		if side == 0 {
			return cmp.Compare(id.Succ(l.self, e.ID), dist)
		}
		return cmp.Compare(id.Pred(l.self, e.ID), dist)
	})
	if found || i == l.c {
		return run
	}
	if len(run) < l.c {
		run = append(run, peer.Descriptor{})
	}
	copy(run[i+1:], run[i:])
	run[i] = d
	return run
}

// LeafShares is the paper's selection rule on counts: of succ successors
// and pred predecessors on offer, a leaf set of size c keeps the nSucc and
// nPred closest — c/2 each (successors take the odd slot), a direction
// short of its share leaving the rest to the other.
func LeafShares(succ, pred, c int) (nSucc, nPred int) {
	nSucc = min(succ, c-min(pred, c/2))
	return nSucc, min(pred, c-nSucc)
}

// sameIDs reports whether a and b hold the same IDs in the same order.
func sameIDs(a, b []peer.Descriptor) bool {
	return slices.EqualFunc(a, b, func(x, y peer.Descriptor) bool { return x.ID == y.ID })
}

func containsID(ds []peer.Descriptor, nodeID id.ID) bool {
	for _, d := range ds {
		if d.ID == nodeID {
			return true
		}
	}
	return false
}

// Release returns the backing block to the arena. The leaf set must not be
// used again by its current owner: the block may be handed to another
// node. Safe to call on a never-filled or already-released set.
func (l *LeafSet) Release() {
	if l.block != nil {
		l.arena.Put(l.block)
	}
	l.block, l.succ, l.pred = nil, nil, nil
	l.version++
}

// Version returns a counter that advances whenever the set's contents
// change (an Update that reports a change, a Remove that finds its entry,
// Release) and only then, so two equal readings bracket an unchanged set.
// Measurement caches key on it.
func (l *LeafSet) Version() uint64 { return l.version }

// Len returns the number of descriptors currently held.
func (l *LeafSet) Len() int { return len(l.succ) + len(l.pred) }

// Successors returns the kept successors, closest first. The slice is the
// internal storage; callers must not modify it.
func (l *LeafSet) Successors() []peer.Descriptor { return l.succ }

// Predecessors returns the kept predecessors, closest first. The slice is
// the internal storage; callers must not modify it.
func (l *LeafSet) Predecessors() []peer.Descriptor { return l.pred }

// Slice returns all leaf set descriptors (successors then predecessors) as
// a fresh slice.
func (l *LeafSet) Slice() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, l.Len())
	out = append(out, l.succ...)
	out = append(out, l.pred...)
	return out
}

// appendByID appends self and the leaf set to dst in ascending ID order.
// Predecessors reversed, self, successors is one clockwise run spanning
// less than the whole ring, so it ascends by ID except where it passes 0;
// the entries beyond that wrap — the far end of one direction — move to
// the other end of the output.
func (l *LeafSet) appendByID(dst []peer.Descriptor, self peer.Descriptor) []peer.Descriptor {
	ws, wp := len(l.succ), len(l.pred)
	for ws > 0 && l.succ[ws-1].ID < l.self {
		ws--
	}
	for wp > 0 && l.pred[wp-1].ID > l.self {
		wp--
	}
	dst = append(dst, l.succ[ws:]...)
	for i := wp - 1; i >= 0; i-- {
		dst = append(dst, l.pred[i])
	}
	dst = append(dst, self)
	dst = append(dst, l.succ[:ws]...)
	for i := len(l.pred) - 1; i >= wp; i-- {
		dst = append(dst, l.pred[i])
	}
	return dst
}

// Contains reports whether a descriptor with the given ID is in the set.
func (l *LeafSet) Contains(nodeID id.ID) bool {
	return containsID(l.succ, nodeID) || containsID(l.pred, nodeID)
}

// Remove drops a descriptor (e.g. one detected as dead) from the set,
// compacting the affected direction in place.
func (l *LeafSet) Remove(nodeID id.ID) {
	n := l.Len()
	l.succ = removeInPlace(l.succ, nodeID)
	l.pred = removeInPlace(l.pred, nodeID)
	if l.Len() != n {
		l.version++
	}
}

// removeInPlace deletes the entry with the given ID preserving order.
// Each direction holds distinct IDs, so one hit suffices.
func removeInPlace(ds []peer.Descriptor, nodeID id.ID) []peer.Descriptor {
	for i := range ds {
		if ds[i].ID == nodeID {
			copy(ds[i:], ds[i+1:])
			return ds[:len(ds)-1]
		}
	}
	return ds
}
