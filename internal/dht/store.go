package dht

import (
	"repro/internal/flat"
	"repro/internal/id"
)

// valRef locates one stored value inside a node's byte arena: the value
// occupies heap[off : off+len] and owns heap[off : off+cap] (cap is the
// size the slot was carved with, so a smaller overwrite reuses it in
// place).
type valRef struct {
	off, len, cap uint32
}

// valueStore is one node's local key-value storage: an open-addressed
// flat table of references into a single append-only byte arena. Compared
// with the former map[id.ID][]byte it removes the per-value slice header
// and heap object (PR 6 discipline — the arena is one allocation, grown
// geometrically), and makes both lookups and overwrites allocation-free in
// steady state:
//
//   - get appends the value bytes into a caller-owned scratch buffer, so a
//     worker reusing its buffer reads at 0 allocs/op;
//   - put overwrites in place whenever the new value fits the slot carved
//     for the old one, which is the common case for fixed-size workload
//     values. A growing overwrite carves a fresh slot and strands the old
//     one — acceptable for serving workloads with stable value sizes; a
//     compacting store is deliberately out of scope here.
//
// The zero value is ready for use. Not safe for concurrent use; the owning
// Node serialises access.
type valueStore struct {
	refs flat.Table[valRef]
	heap []byte
}

// put stores val under key, copying it into the arena.
func (s *valueStore) put(key id.ID, val []byte) {
	if ref, ok := s.refs.Get(key); ok && len(val) <= int(ref.cap) {
		copy(s.heap[ref.off:ref.off+ref.cap], val)
		ref.len = uint32(len(val))
		s.refs.Put(key, ref)
		return
	}
	off := uint32(len(s.heap))
	s.heap = append(s.heap, val...)
	s.refs.Put(key, valRef{off: off, len: uint32(len(val)), cap: uint32(len(val))})
}

// get appends the value stored under key to dst and reports whether the
// key was present. dst is returned grown (unchanged on a miss); callers
// that reuse dst across calls read without allocating.
func (s *valueStore) get(key id.ID, dst []byte) ([]byte, bool) {
	ref, ok := s.refs.Get(key)
	if !ok {
		return dst, false
	}
	return append(dst, s.heap[ref.off:ref.off+ref.len]...), true
}

// keys returns the number of keys stored.
func (s *valueStore) keys() int { return s.refs.Len() }
