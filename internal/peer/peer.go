// Package peer defines node descriptors — the (ID, address) pairs exchanged
// by every gossip protocol in this repository — and small utilities for
// working with descriptor sets.
package peer

import (
	"fmt"
	"slices"

	"repro/internal/flat"
	"repro/internal/id"
)

// Addr identifies a node endpoint. In the simulated networks an address is a
// dense index assigned by the network at registration time; in a real
// deployment it would be an IP:port.
type Addr int32

// NoAddr is the sentinel for absent endpoints. Note that the zero value of
// Addr is a real address; use None for an absent descriptor.
const NoAddr Addr = -1

// None is the absent descriptor. The zero Descriptor value is NOT absent —
// it refers to address 0 — so code needing "no peer" must use None.
var None = Descriptor{Addr: NoAddr}

// Descriptor is the unit of gossip: a node's identifier together with the
// address where it can be reached.
type Descriptor struct {
	ID   id.ID
	Addr Addr
}

// Nil reports whether the descriptor is absent (no endpoint).
func (d Descriptor) Nil() bool { return d.Addr == NoAddr }

// String formats the descriptor for logs and test failures.
func (d Descriptor) String() string {
	return fmt.Sprintf("%s@%d", d.ID, d.Addr)
}

// Set is an order-preserving collection of descriptors with O(1)
// deduplication by ID. The index is an open-addressed flat table rather
// than a built-in map: half the memory per entry, and the layout (hence
// any iteration a future caller might add) is deterministic. The zero
// value is an empty set ready for use; NewSet pre-sizes one.
type Set struct {
	list  []Descriptor
	index flat.Table[int32]
}

// NewSet returns an empty Set with capacity for n descriptors.
func NewSet(n int) *Set {
	s := &Set{list: make([]Descriptor, 0, n)}
	s.index.Reserve(n)
	return s
}

// Add inserts d unless a descriptor with the same ID is already present.
// It reports whether the descriptor was inserted.
func (s *Set) Add(d Descriptor) bool {
	if s.index.Contains(d.ID) {
		return false
	}
	s.index.Put(d.ID, int32(len(s.list)))
	s.list = append(s.list, d)
	return true
}

// AddAll inserts every descriptor of ds, skipping duplicates.
func (s *Set) AddAll(ds []Descriptor) {
	for _, d := range ds {
		s.Add(d)
	}
}

// Contains reports whether a descriptor with the given ID is present.
func (s *Set) Contains(nodeID id.ID) bool {
	return s.index.Contains(nodeID)
}

// Remove deletes the descriptor with the given ID, if present. The last
// list element takes the vacated position (swap-delete), so insertion
// order is preserved only up to removals.
func (s *Set) Remove(nodeID id.ID) {
	i, ok := s.index.Get(nodeID)
	if !ok {
		return
	}
	last := int32(len(s.list) - 1)
	s.list[i] = s.list[last]
	s.index.Put(s.list[i].ID, i)
	s.list = s.list[:last]
	s.index.Delete(nodeID)
}

// Len returns the number of descriptors in the set.
func (s *Set) Len() int { return len(s.list) }

// Reset empties the set while retaining its allocated capacity, so a Set
// can serve as a reusable scratch buffer on a hot path.
func (s *Set) Reset() {
	s.list = s.list[:0]
	s.index.Clear()
}

// Slice returns the descriptors in insertion order (modulo removals). The
// returned slice is the set's backing storage; callers must not modify it.
func (s *Set) Slice() []Descriptor { return s.list }

// Copy returns a fresh slice with the set's contents.
func (s *Set) Copy() []Descriptor {
	out := make([]Descriptor, len(s.list))
	copy(out, s.list)
	return out
}

// SortByRingDistance orders ds in place by ring distance from the pivot,
// closest first. Ties are broken by ID so the order is deterministic: the
// comparator is a total order over distinct IDs, which also makes the
// result independent of the sort algorithm. slices.SortFunc rather than
// sort.Slice keeps the per-call reflection swapper allocation off the
// message-construction hot path.
func SortByRingDistance(ds []Descriptor, pivot id.ID) {
	slices.SortFunc(ds, func(a, b Descriptor) int {
		if ringLess(pivot, a, b) {
			return -1
		}
		if ringLess(pivot, b, a) {
			return 1
		}
		return 0
	})
}

// ringLess reports whether a sorts before b by ring distance from pivot,
// breaking ties by ID.
func ringLess(pivot id.ID, a, b Descriptor) bool {
	if c := id.CompareRing(pivot, a.ID, b.ID); c != 0 {
		return c < 0
	}
	return a.ID < b.ID
}
