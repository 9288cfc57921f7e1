package core

import (
	"math/bits"
	"slices"

	"repro/internal/id"
	"repro/internal/peer"
)

// PrefixTable is the routing structure at the heart of prefix-based DHTs:
// for every pair (i, j) — i the longest-common-prefix length with the
// node's own ID in base-2^b digits, j the first differing digit — it holds
// up to k descriptors of nodes whose IDs realise that pair. Rows are
// allocated lazily, because at any practical network size only the first
// O(log N) rows can ever be populated.
//
// Storage: a populated row is one fixed-stride block of 2^b·k descriptors,
// drawn from the network's DescriptorArena when one is configured on the
// row's first entry and returned whole through Release when the owning
// node is permanently retired. Slot (i, j) is rows[i][j·k:][:fill], its
// entries in first-come order and zero past the fill; the fill counts, one
// byte per slot, are allocated by the first insertion, never by the
// constructor. So a slot's capacity test reads one count and every walk
// reads contiguous memory, stopping at the deepest populated row.
type PrefixTable struct {
	self  id.ID
	b, k  int
	arena *peer.DescriptorArena
	// rows[i] is nil or row i's 2^b·k block; rows ends at the deepest
	// populated row.
	rows [][]peer.Descriptor
	fill []uint8 // fill[i<<b+j] is slot (i, j)'s entry count
	n    int     // total entries
	// version advances on every change to the contents (see Version).
	version uint64
}

// NewPrefixTable returns an empty heap-backed prefix table for the given
// node.
func NewPrefixTable(self id.ID, b, k int) *PrefixTable {
	return NewPrefixTableIn(nil, self, b, k)
}

// NewPrefixTableIn returns an empty prefix table whose slot storage is
// drawn from the given arena (nil for plain heap allocation). b must divide
// the 64-bit ID width (Config.Validate's rule), and a slot's fill count is
// one byte, so k must not exceed MaxK.
func NewPrefixTableIn(arena *peer.DescriptorArena, self id.ID, b, k int) *PrefixTable {
	if b < 1 || id.Bits%b != 0 || k > MaxK {
		panic("core: prefix table needs b dividing 64 and k ≤ MaxK")
	}
	return &PrefixTable{self: self, b: b, k: k, arena: arena}
}

// Slot locates the (row, column) a descriptor ID belongs to relative to the
// table owner. ok is false for the owner's own ID.
func (t *PrefixTable) Slot(nodeID id.ID) (row, col int, ok bool) {
	if nodeID == t.self {
		return 0, 0, false
	}
	// id.CommonPrefixLen and Digit, with the division by b as a shift: b
	// divides 64, so it is a power of two. The IDs differ, so the shared
	// prefix stops short of the last digit and the shift below is ≥ 0.
	lg := uint(bits.TrailingZeros(uint(t.b)))
	row = bits.LeadingZeros64(uint64(t.self^nodeID)) >> lg
	col = int(uint64(nodeID) >> (id.Bits - uint(row+1)<<lg) & (1<<uint(t.b) - 1))
	return row, col, true
}

// slot returns the entries of slot (row, col) of a populated row.
func (t *PrefixTable) slot(row, col int) []peer.Descriptor {
	lo := col * t.k
	hi := lo + int(t.fill[row<<uint(t.b)+col])
	return t.rows[row][lo:hi:hi]
}

// Add inserts a descriptor into its slot unless the slot is full or the
// descriptor is already present. It reports whether the table changed —
// this is the paper's UpdatePrefixTable applied to a single descriptor.
func (t *PrefixTable) Add(d peer.Descriptor) bool {
	return t.AddAll([]peer.Descriptor{d}) == 1
}

// AddAll inserts every descriptor of ds (the paper's UpdatePrefixTable).
// It reports how many entries were inserted.
func (t *PrefixTable) AddAll(ds []peer.Descriptor) int {
	if t.fill == nil {
		t.fill = make([]uint8, id.NumDigits(t.b)<<uint(t.b))
	}
	k := t.k
	added := 0
next:
	for _, d := range ds {
		row, col, ok := t.Slot(d.ID)
		if !ok {
			continue
		}
		fi := row<<uint(t.b) + col
		f := int(t.fill[fi])
		if f >= k {
			continue
		}
		if row >= len(t.rows) {
			t.rows = slices.Grow(t.rows, row+1-len(t.rows))[:row+1]
		}
		blk := t.rows[row]
		if blk == nil {
			// First entry for this row: draw its whole block, which every
			// later entry of the row fills in place.
			blk = t.arena.Get(k << uint(t.b))
			blk = blk[:cap(blk)]
			t.rows[row] = blk
		}
		base := col * k
		for _, cur := range blk[base : base+f] {
			if cur.ID == d.ID {
				continue next
			}
		}
		blk[base+f] = d
		t.fill[fi]++
		added++
	}
	t.n += added
	if added > 0 {
		t.version++
	}
	return added
}

// Get returns the slot contents for (row, col). The returned slice is
// internal storage; callers must not modify it.
func (t *PrefixTable) Get(row, col int) []peer.Descriptor {
	if row < 0 || row >= len(t.rows) || t.rows[row] == nil {
		return nil
	}
	if col < 0 || col >= 1<<uint(t.b) {
		return nil
	}
	return t.slot(row, col)
}

// Len returns the total number of entries in the table.
func (t *PrefixTable) Len() int { return t.n }

// Version returns a counter that advances whenever the table's contents
// change (Add or Remove changing a slot, Release) and only then, so two
// equal readings bracket an unchanged table. Measurement caches key on it.
func (t *PrefixTable) Version() uint64 { return t.version }

// Each calls fn for every entry in the table, row by row. fn returning
// false stops the iteration.
func (t *PrefixTable) Each(fn func(row, col int, d peer.Descriptor) bool) {
	cols := 1 << uint(t.b)
	for i, blk := range t.rows {
		if blk == nil {
			continue
		}
		for j, f := range t.fill[i*cols : (i+1)*cols] {
			for _, d := range blk[j*t.k : j*t.k+int(f)] {
				if !fn(i, j, d) {
					return
				}
			}
		}
	}
}

// Entries returns all table entries as a fresh slice, row by row.
func (t *PrefixTable) Entries() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, t.n)
	t.Each(func(_, _ int, d peer.Descriptor) bool {
		out = append(out, d)
		return true
	})
	return out
}

// appendByID appends all table entries to dst in ascending ID order. Row i
// holds the IDs that share i digits with the owner, column j those whose
// next digit is j; so below the owner's ID come the columns left of its own
// digit, row after row downward (each longer shared prefix sorts higher),
// and above it the columns right of its digit, coming back up the rows.
// Slots keep their stored order — first come, which sweepTarget indexes —
// and are sorted in dst.
func (t *PrefixTable) appendByID(dst []peer.Descriptor) []peer.Descriptor {
	for i, blk := range t.rows {
		if blk != nil {
			dst = t.appendSlotsByID(dst, i, 0, t.self.Digit(i, t.b))
		}
	}
	for i := len(t.rows) - 1; i >= 0; i-- {
		if t.rows[i] != nil {
			dst = t.appendSlotsByID(dst, i, t.self.Digit(i, t.b)+1, 1<<uint(t.b))
		}
	}
	return dst
}

// appendSlotsByID appends the entries of row i's slots lo ≤ j < hi, each
// slot sorted by ID.
func (t *PrefixTable) appendSlotsByID(dst []peer.Descriptor, i, lo, hi int) []peer.Descriptor {
	blk := t.rows[i][lo*t.k : hi*t.k]
	for j, f := range t.fill[i<<uint(t.b)+lo : i<<uint(t.b)+hi] {
		if f == 0 {
			continue
		}
		base := len(dst)
		for _, d := range blk[j*t.k : j*t.k+int(f)] { // ≤ k: cheaper than a memmove call
			dst = append(dst, d)
		}
		sortByID(dst[base:])
	}
	return dst
}

// at returns the i-th entry in Each's order, 0 ≤ i < Len().
func (t *PrefixTable) at(i int) peer.Descriptor {
	cols := 1 << uint(t.b)
	for r, blk := range t.rows {
		if blk == nil {
			continue
		}
		for j, f := range t.fill[r*cols : (r+1)*cols] {
			if i < int(f) {
				return blk[j*t.k+i]
			}
			i -= int(f)
		}
	}
	panic("core: prefix table index out of range")
}

// Remove drops the entry with the given ID, if present (e.g. a peer
// detected as dead), compacting the slot in place and zeroing the vacated
// position.
func (t *PrefixTable) Remove(nodeID id.ID) {
	row, col, ok := t.Slot(nodeID)
	if !ok || row >= len(t.rows) || t.rows[row] == nil {
		return
	}
	slot := t.slot(row, col)
	for i := range slot {
		if slot[i].ID == nodeID {
			copy(slot[i:], slot[i+1:])
			slot[len(slot)-1] = peer.Descriptor{}
			t.fill[row<<uint(t.b)+col]--
			t.n--
			t.version++
			return
		}
	}
}

// Release returns every row block to the arena and drops the rows. The
// table must not be used again by its current owner: the blocks may be
// handed to another node. Safe to call repeatedly.
func (t *PrefixTable) Release() {
	for _, blk := range t.rows {
		if blk != nil {
			t.arena.Put(blk)
		}
	}
	t.rows, t.fill, t.n = nil, nil, 0
	t.version++
}

// B returns the digit width parameter.
func (t *PrefixTable) B() int { return t.b }

// K returns the per-slot capacity.
func (t *PrefixTable) K() int { return t.k }

// NumRows returns the number of rows (64/b).
func (t *PrefixTable) NumRows() int { return id.NumDigits(t.b) }
