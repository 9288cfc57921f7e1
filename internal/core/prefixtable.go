package core

import (
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
// Slot storage (the cap-k descriptor arrays) is drawn from the network's
// DescriptorArena when one is configured, also lazily, and returned whole
// through Release when the owning node is permanently retired.
type PrefixTable struct {
	self  id.ID
	b, k  int
	arena *peer.DescriptorArena
	rows  [][][]peer.Descriptor // rows[i][j] is the (i, j) slot, cap k
}

// NewPrefixTable returns an empty heap-backed prefix table for the given
// node.
func NewPrefixTable(self id.ID, b, k int) *PrefixTable {
	return NewPrefixTableIn(nil, self, b, k)
}

// NewPrefixTableIn returns an empty prefix table whose slot storage is
// drawn from the given arena (nil for plain heap allocation).
func NewPrefixTableIn(arena *peer.DescriptorArena, self id.ID, b, k int) *PrefixTable {
	return &PrefixTable{
		self:  self,
		b:     b,
		k:     k,
		arena: arena,
		rows:  make([][][]peer.Descriptor, id.NumDigits(b)),
	}
}

// Slot locates the (row, column) a descriptor ID belongs to relative to the
// table owner. ok is false for the owner's own ID.
func (t *PrefixTable) Slot(nodeID id.ID) (row, col int, ok bool) {
	if nodeID == t.self {
		return 0, 0, false
	}
	row = id.CommonPrefixLen(t.self, nodeID, t.b)
	col = nodeID.Digit(row, t.b)
	return row, col, true
}

// Add inserts a descriptor into its slot unless the slot is full or the
// descriptor is already present. It reports whether the table changed —
// this is the paper's UpdatePrefixTable applied to a single descriptor.
func (t *PrefixTable) Add(d peer.Descriptor) bool {
	row, col, ok := t.Slot(d.ID)
	if !ok {
		return false
	}
	if t.rows[row] == nil {
		t.rows[row] = make([][]peer.Descriptor, 1<<uint(t.b))
	}
	slot := t.rows[row][col]
	if len(slot) >= t.k {
		return false
	}
	for _, cur := range slot {
		if cur.ID == d.ID {
			return false
		}
	}
	if slot == nil {
		// First entry for this slot: draw its full cap-k block, so the
		// append below (and every later one, len < k) never reallocates.
		slot = t.arena.Get(t.k)
	}
	t.rows[row][col] = append(slot, d)
	return true
}

// AddAll inserts every descriptor of ds (the paper's UpdatePrefixTable).
// It reports how many entries were inserted.
func (t *PrefixTable) AddAll(ds []peer.Descriptor) int {
	n := 0
	for _, d := range ds {
		if t.Add(d) {
			n++
		}
	}
	return n
}

// Get returns the slot contents for (row, col). The returned slice is
// internal storage; callers must not modify it.
func (t *PrefixTable) Get(row, col int) []peer.Descriptor {
	if row < 0 || row >= len(t.rows) || t.rows[row] == nil {
		return nil
	}
	if col < 0 || col >= len(t.rows[row]) {
		return nil
	}
	return t.rows[row][col]
}

// Len returns the total number of entries in the table.
func (t *PrefixTable) Len() int {
	n := 0
	for _, row := range t.rows {
		for _, slot := range row {
			n += len(slot)
		}
	}
	return n
}

// Each calls fn for every entry in the table, row by row. fn returning
// false stops the iteration.
func (t *PrefixTable) Each(fn func(row, col int, d peer.Descriptor) bool) {
	for i, row := range t.rows {
		for j, slot := range row {
			for _, d := range slot {
				if !fn(i, j, d) {
					return
				}
			}
		}
	}
}

// Entries returns all table entries as a fresh slice, row by row.
func (t *PrefixTable) Entries() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, t.Len())
	for _, row := range t.rows {
		for _, slot := range row {
			out = append(out, slot...)
		}
	}
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
	for i, row := range t.rows {
		if row != nil {
			dst = appendSlotsByID(dst, row[:t.self.Digit(i, t.b)])
		}
	}
	for i := len(t.rows) - 1; i >= 0; i-- {
		if row := t.rows[i]; row != nil {
			dst = appendSlotsByID(dst, row[t.self.Digit(i, t.b)+1:])
		}
	}
	return dst
}

func appendSlotsByID(dst []peer.Descriptor, slots [][]peer.Descriptor) []peer.Descriptor {
	for _, slot := range slots {
		base := len(dst)
		for _, d := range slot { // ≤ k: cheaper than a memmove call
			dst = append(dst, d)
		}
		sortByID(dst[base:])
	}
	return dst
}

// at returns the i-th entry in Each's order, 0 ≤ i < Len().
func (t *PrefixTable) at(i int) peer.Descriptor {
	for _, row := range t.rows {
		for _, slot := range row {
			if i < len(slot) {
				return slot[i]
			}
			i -= len(slot)
		}
	}
	panic("core: prefix table index out of range")
}

// SlotCounts returns, for each row, the number of entries per column.
// Used by the ground-truth comparison.
func (t *PrefixTable) SlotCounts() [][]int {
	out := make([][]int, len(t.rows))
	for i, row := range t.rows {
		out[i] = make([]int, 1<<uint(t.b))
		for j, slot := range row {
			out[i][j] = len(slot)
		}
	}
	return out
}

// Remove drops the entry with the given ID, if present (e.g. a peer
// detected as dead), compacting the slot in place so the slot keeps its
// arena block.
func (t *PrefixTable) Remove(nodeID id.ID) {
	row, col, ok := t.Slot(nodeID)
	if !ok || t.rows[row] == nil {
		return
	}
	slot := t.rows[row][col]
	for i := range slot {
		if slot[i].ID == nodeID {
			copy(slot[i:], slot[i+1:])
			t.rows[row][col] = slot[:len(slot)-1]
			return
		}
	}
}

// Release returns every slot block to the arena and drops the rows. The
// table must not be used again by its current owner: the blocks may be
// handed to another node. Safe to call repeatedly.
func (t *PrefixTable) Release() {
	for i, row := range t.rows {
		for j, slot := range row {
			if slot != nil {
				t.arena.Put(slot)
				row[j] = nil
			}
		}
		t.rows[i] = nil
	}
}

// Owner returns the ID of the node this table belongs to.
func (t *PrefixTable) Owner() id.ID { return t.self }

// B returns the digit width parameter.
func (t *PrefixTable) B() int { return t.b }

// K returns the per-slot capacity.
func (t *PrefixTable) K() int { return t.k }

// NumRows returns the number of rows (64/b).
func (t *PrefixTable) NumRows() int { return len(t.rows) }
