package core

import (
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

// leafScratch holds the merge pool and rebuild buffers reused across
// Update calls. The pool is shared by every leaf set in the process (all
// updates run serialised per node; concurrent nodes draw distinct objects
// from the pool), which turns what used to be per-call — and would
// otherwise be per-node retained — scratch into a handful of objects.
type leafScratch struct {
	pool       peer.Set
	old        []peer.Descriptor
	succ, pred []peer.Descriptor
	admitted   []peer.Descriptor // what a full set's admission test let through
}

var leafScratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// Update merges the given descriptors into the leaf set and re-applies the
// selection rule. The node's own descriptor and duplicates are ignored.
// It reports whether the kept set changed.
//
// A full set first turns away, in two compares each, the candidates that
// cannot be kept: a direction holding its share of a contested set — c/2
// predecessors, c − c/2 successors, who get the odd slot — keeps that
// count whatever arrives, so it admits only IDs strictly closer than its
// farthest entry; a direction holding less has borrowed the other's slots
// and admits anything. When nothing is admitted nothing changes, and the
// call returns without merging or sorting. (DESIGN.md has the proof.)
func (l *LeafSet) Update(ds []peer.Descriptor) bool {
	var sc *leafScratch
	if half := l.c / 2; half > 0 && l.Len() == l.c {
		// Per direction, the directed distance an admitted ID is under.
		succLim, predLim := uint64(math.MaxUint64), uint64(math.MaxUint64)
		if n := len(l.succ); n >= l.c-half {
			succLim = id.Succ(l.self, l.succ[n-1].ID)
		}
		if n := len(l.pred); n >= half {
			predLim = id.Pred(l.self, l.pred[n-1].ID)
		}
		for _, d := range ds {
			cw, ccw := id.Succ(l.self, d.ID), id.Pred(l.self, d.ID)
			if (cw <= ccw && cw >= succLim) || (cw > ccw && ccw >= predLim) {
				continue // cw ≤ ccw: a successor (id.IsSuccessor) — or self, skipped below
			}
			if sc == nil {
				sc = leafScratchPool.Get().(*leafScratch)
				sc.admitted = sc.admitted[:0]
			}
			sc.admitted = append(sc.admitted, d)
		}
		if sc == nil {
			return false
		}
		ds = sc.admitted
	} else {
		sc = leafScratchPool.Get().(*leafScratch)
	}
	defer leafScratchPool.Put(sc)
	pool := &sc.pool
	pool.Reset()
	for _, d := range l.succ {
		pool.Add(d)
	}
	for _, d := range l.pred {
		pool.Add(d)
	}
	added := false
	for _, d := range ds {
		if d.ID == l.self {
			continue
		}
		if pool.Add(d) {
			added = true
		}
	}
	if !added {
		return false
	}
	// Snapshot the previous contents (distinct IDs by construction) for
	// the change check; rebuild overwrites the backing block in place.
	sc.old = append(sc.old[:0], l.succ...)
	sc.old = append(sc.old, l.pred...)
	l.rebuild(pool.Slice(), sc)
	if !l.holdsExactly(sc.old) {
		l.version++
		return true
	}
	return false
}

// holdsExactly reports whether the set's IDs are exactly those of old
// (distinct IDs). The rebuild that kept them also kept their descriptors
// and order: kept entries enter the pool first, and the order is a
// function of the IDs.
func (l *LeafSet) holdsExactly(old []peer.Descriptor) bool {
	if l.Len() != len(old) {
		return false
	}
	for _, d := range l.succ {
		if !containsID(old, d.ID) {
			return false
		}
	}
	for _, d := range l.pred {
		if !containsID(old, d.ID) {
			return false
		}
	}
	return true
}

func containsID(ds []peer.Descriptor, nodeID id.ID) bool {
	for _, d := range ds {
		if d.ID == nodeID {
			return true
		}
	}
	return false
}

// rebuild applies the paper's selection rule to an arbitrary candidate
// pool (entries with distinct IDs) and writes the outcome into the backing
// block. The pool holds copies, so overwriting the block mid-rebuild
// cannot corrupt the candidates.
func (l *LeafSet) rebuild(pool []peer.Descriptor, sc *leafScratch) {
	succ, pred := sc.succ[:0], sc.pred[:0]
	for _, d := range pool {
		if d.ID == l.self {
			continue
		}
		if id.IsSuccessor(l.self, d.ID) {
			succ = append(succ, d)
		} else {
			pred = append(pred, d)
		}
	}
	// Directed ring distances from a fixed origin are injective over
	// distinct IDs, so neither comparator can tie: the sort order is a
	// total order, independent of the algorithm.
	slices.SortFunc(succ, func(a, b peer.Descriptor) int {
		da, db := id.Succ(l.self, a.ID), id.Succ(l.self, b.ID)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return 0
	})
	slices.SortFunc(pred, func(a, b peer.Descriptor) int {
		da, db := id.Pred(l.self, a.ID), id.Pred(l.self, b.ID)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return 0
	})

	half := l.c / 2
	nSucc := min(len(succ), half)
	nPred := min(len(pred), half)
	// Top up from the other direction when one side is short.
	if spare := l.c - nSucc - nPred; spare > 0 {
		nSucc = min(len(succ), nSucc+spare)
	}
	if spare := l.c - nSucc - nPred; spare > 0 {
		nPred = min(len(pred), nPred+spare)
	}
	// nSucc+nPred ≤ c by the spare arithmetic, so both directions fit the
	// single capacity-c block.
	if l.block == nil {
		l.block = l.arena.Get(l.c)
	}
	blk := append(l.block[:0], succ[:nSucc]...)
	blk = append(blk, pred[:nPred]...)
	l.succ = blk[0:nSucc:nSucc]
	l.pred = blk[nSucc : nSucc+nPred : nSucc+nPred]
	sc.succ, sc.pred = succ, pred
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

// Capacity returns the configured leaf set size c.
func (l *LeafSet) Capacity() int { return l.c }

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

// SortedByRingDistance returns the leaf set ordered by (undirected) ring
// distance from the node, closest first — the order used by SelectPeer.
// Successor/predecessor lists are already sorted, so this is a merge.
func (l *LeafSet) SortedByRingDistance() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, l.Len())
	i, j := 0, 0
	for i < len(l.succ) && j < len(l.pred) {
		ds := id.Succ(l.self, l.succ[i].ID)
		dp := id.Pred(l.self, l.pred[j].ID)
		if ds <= dp {
			out = append(out, l.succ[i])
			i++
		} else {
			out = append(out, l.pred[j])
			j++
		}
	}
	out = append(out, l.succ[i:]...)
	out = append(out, l.pred[j:]...)
	return out
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
