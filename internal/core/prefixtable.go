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
// Storage: a populated row is one run of its entries in ascending ID order.
// Slot (i, j) covers one contiguous ID interval, so its entries are one
// sub-run of row i, after those of the columns left of j; the row's fill
// counts, one byte per slot, locate it, and the capacity test reads one
// count. A rank byte per entry keeps each slot's first-come order, the
// order Each, at and AppendSlot expose; fill counts and ranks share one
// byte array for the whole table. A row's block comes from the network's
// DescriptorArena in capacity classes (k·2^m, up to the (2^b−1)·k entries
// a row can hold: the owner's own digit column is always empty); a block
// the row outgrows goes back to the arena, and Release returns the rest
// when the owning node is permanently retired.
//
// Read in ID order, the table is each row's run below the owner's ID, row
// after row downward (a longer shared prefix sorts closer to the owner),
// then each row's run above it, coming back up the rows: appendMerged
// merges it in place, with no copy and no sort.
type PrefixTable struct {
	self  id.ID
	b, k  int
	arena *peer.DescriptorArena
	// rows[i] is nil or row i's entries by ID in a block of a capacity
	// class, zero past its length; rows ends at the deepest populated row.
	rows [][]peer.Descriptor
	// meta holds, for the rows of rows, first every row's fill counts,
	// one per column (see fills) — one cache line for the first rows, read
	// by every capacity test — then every row's rank area: its entries'
	// arrival ranks within their slots, the x-th for rows[i][x] and zero
	// past len(rows[i]) (see ranks).
	meta []uint8
	n    int // total entries
	// version advances on every change to the contents (see Version).
	version uint64
}

// NewPrefixTable returns an empty heap-backed prefix table for the given
// node.
func NewPrefixTable(self id.ID, b, k int) *PrefixTable {
	return NewPrefixTableIn(nil, self, b, k)
}

// NewPrefixTableIn returns an empty prefix table whose row storage is
// drawn from the given arena (nil for plain heap allocation). b must divide
// the 64-bit ID width (Config.Validate's rule), and a slot's fill count and
// an entry's rank are one byte each, so k must not exceed MaxK.
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

// rowCap is the most entries a row can hold.
func (t *PrefixTable) rowCap() int { return (1<<uint(t.b) - 1) * t.k }

// stride is the bytes of meta per row: its fill counts and its rank area.
func (t *PrefixTable) stride() int { return 1<<uint(t.b) + t.rowCap() }

// fills returns row i's fill counts, one per column.
func (t *PrefixTable) fills(i int) []uint8 {
	return t.meta[i<<uint(t.b) : (i+1)<<uint(t.b)]
}

// ranks returns the ranks of row i's entries.
func (t *PrefixTable) ranks(i int) []uint8 {
	at := len(t.rows)<<uint(t.b) + i*t.rowCap()
	return t.meta[at : at+len(t.rows[i])]
}

// addRows extends rows to n rows, with zero fill counts and ranks.
func (t *PrefixTable) addRows(n int) {
	fills := len(t.rows) << uint(t.b)
	meta := make([]uint8, n*t.stride())
	copy(meta, t.meta[:fills])
	copy(meta[n<<uint(t.b):], t.meta[fills:])
	t.rows = slices.Grow(t.rows, n-len(t.rows))[:n]
	t.meta = meta
}

// class returns the block capacity for a row of n entries.
func (t *PrefixTable) class(n int) int {
	c := t.k
	for c < n {
		c *= 2
	}
	return min(c, t.rowCap())
}

// slotStart returns where slot (row, col)'s sub-run starts in its row.
func (t *PrefixTable) slotStart(row, col int) int {
	x := 0
	for _, f := range t.fills(row)[:col] {
		x += int(f)
	}
	return x
}

// Add inserts a descriptor into its slot unless the slot is full or the
// descriptor is already present. It reports whether the table changed —
// this is the paper's UpdatePrefixTable applied to a single descriptor.
func (t *PrefixTable) Add(d peer.Descriptor) bool {
	return t.AddAll([]peer.Descriptor{d}) == 1
}

// AddAll inserts every descriptor of ds (the paper's UpdatePrefixTable).
// It reports how many entries were inserted. A descriptor for a full slot
// costs one byte read; the others, a scan of their slot, and one that goes
// in a move of the entries above it.
func (t *PrefixTable) AddAll(ds []peer.Descriptor) int {
	added := 0
	for _, d := range ds {
		row, col, ok := t.Slot(d.ID)
		if !ok {
			continue
		}
		fi := row<<uint(t.b) + col
		var f uint8
		if row < len(t.rows) {
			f = t.meta[fi]
		}
		if int(f) >= t.k {
			continue
		}
		if row >= len(t.rows) {
			t.addRows(row + 1)
		}
		run := t.rows[row]
		x := t.slotStart(row, col)
		end := x + int(f)
		for x < end && run[x].ID < d.ID {
			x++
		}
		if x < end && run[x].ID == d.ID {
			continue
		}
		if len(run) == cap(run) {
			run = t.grow(row)
		}
		run = run[:len(run)+1]
		copy(run[x+1:], run[x:])
		run[x] = d
		t.rows[row] = run
		rk := t.ranks(row)
		copy(rk[x+1:], rk[x:])
		rk[x] = f // the slot's latest arrival
		t.meta[fi]++
		added++
	}
	t.n += added
	if added > 0 {
		t.version++
	}
	return added
}

// grow moves row's entries into a block of the next capacity class and
// returns the outgrown block to the arena.
func (t *PrefixTable) grow(row int) []peer.Descriptor {
	old := t.rows[row]
	run := append(t.arena.Get(t.class(len(old)+1)), old...)
	t.arena.Put(old)
	t.rows[row] = run
	return run
}

// AppendSlot appends the entries of slot (row, col) to dst in first-come
// order; out of range, it appends nothing.
func (t *PrefixTable) AppendSlot(dst []peer.Descriptor, row, col int) []peer.Descriptor {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= 1<<uint(t.b) {
		return dst
	}
	x, f := t.slotStart(row, col), int(t.fills(row)[col])
	base := len(dst)
	dst = slices.Grow(dst, f)[:base+f]
	for y, r := range t.ranks(row)[x : x+f] {
		dst[base+int(r)] = t.rows[row][x+y]
	}
	return dst
}

// Len returns the total number of entries in the table.
func (t *PrefixTable) Len() int { return t.n }

// Version returns a counter that advances whenever the table's contents
// change (Add or Remove changing a slot, Release) and only then, so two
// equal readings bracket an unchanged table. Measurement caches key on it.
func (t *PrefixTable) Version() uint64 { return t.version }

// Each calls fn for every entry in the table, row by row, column by
// column, each slot in first-come order. fn returning false stops the
// iteration.
func (t *PrefixTable) Each(fn func(row, col int, d peer.Descriptor) bool) {
	for i, run := range t.rows {
		ranks := t.ranks(i)
		x := 0
		for j, f := range t.fills(i) {
			slot, rk := run[x:x+int(f)], ranks[x:x+int(f)]
			for r := range f { // the entry of rank r
				y := 0
				for rk[y] != r {
					y++
				}
				if !fn(i, j, slot[y]) {
					return
				}
			}
			x += int(f)
		}
	}
}

// EachSlot calls fn for every populated slot with its entries in ID order,
// row by row, column by column: Each without the first-come order, for a
// reader that needs only the contents. The slice is internal storage;
// callers must not modify or retain it. fn returning false stops the
// iteration.
func (t *PrefixTable) EachSlot(fn func(row, col int, slot []peer.Descriptor) bool) {
	for i, run := range t.rows {
		x := 0
		for j, f := range t.fills(i) {
			if f > 0 && !fn(i, j, run[x:x+int(f):x+int(f)]) {
				return
			}
			x += int(f)
		}
	}
}

// Entries returns all table entries as a fresh slice in Each's order.
func (t *PrefixTable) Entries() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, t.n)
	t.Each(func(_, _ int, d peer.Descriptor) bool {
		out = append(out, d)
		return true
	})
	return out
}

// at returns the i-th entry in Each's order, 0 ≤ i < Len().
func (t *PrefixTable) at(i int) peer.Descriptor {
	for r, run := range t.rows {
		if i >= len(run) {
			i -= len(run)
			continue
		}
		x := 0
		for _, f := range t.fills(r) {
			if i < int(f) {
				return run[x+slices.Index(t.ranks(r)[x:x+int(f)], uint8(i))]
			}
			i -= int(f)
			x += int(f)
		}
	}
	panic("core: prefix table index out of range")
}

// appendMerged appends to dst the merge of the ID-ascending runs a and b
// with the table's entries, one descriptor per ID: the first of a run's
// duplicates, and a's over b's over the table's. The rows are read in
// place: first the part of each below the owner's ID, rows 0, 1, …, then
// the part above it, rows …, 1, 0.
func (t *PrefixTable) appendMerged(dst, a, b []peer.Descriptor) []peer.Descriptor {
	for i, run := range t.rows {
		dst, a, b = merge3(dst, a, b, run[:t.slotStart(i, t.self.Digit(i, t.b))])
	}
	for i := len(t.rows) - 1; i >= 0; i-- {
		run := t.rows[i]
		dst, a, b = merge3(dst, a, b, run[t.slotStart(i, t.self.Digit(i, t.b)):])
	}
	return mergeByID(dst, a, b)
}

// merge3 appends to dst the merge of three ID-ascending runs, one
// descriptor per ID with a's over b's over c's, up to the end of c, and
// returns what is left of a and b: the entries above c's last. c holds
// distinct IDs, and its stretches between a's and b's entries are copied
// whole.
func merge3(dst, a, b, c []peer.Descriptor) (_, _, _ []peer.Descriptor) {
	for len(c) > 0 {
		fromA := len(a) > 0 && (len(b) == 0 || a[0].ID <= b[0].ID)
		var d peer.Descriptor // a's or b's next, a's on a tie
		switch {
		case fromA:
			d = a[0]
		case len(b) > 0:
			d = b[0]
		default:
			return append(dst, c...), a, b
		}
		n := 0
		for n < len(c) && c[n].ID < d.ID {
			n++
		}
		dst, c = append(dst, c[:n]...), c[n:]
		if len(c) == 0 {
			break
		}
		if c[0].ID == d.ID {
			c = c[1:]
		}
		if fromA {
			a = a[1:]
		} else {
			b = b[1:]
		}
		if k := len(dst); k == 0 || dst[k-1].ID != d.ID {
			dst = append(dst, d)
		}
	}
	return dst, a, b
}

// Remove drops the entry with the given ID, if present (e.g. a peer
// detected as dead): the slot's later arrivals move up one rank, the row
// closes the gap and the vacated position is zeroed.
func (t *PrefixTable) Remove(nodeID id.ID) {
	row, col, ok := t.Slot(nodeID)
	if !ok || row >= len(t.rows) {
		return
	}
	fills, rk := t.fills(row), t.ranks(row)
	run := t.rows[row]
	lo := t.slotStart(row, col)
	slot := run[lo : lo+int(fills[col])]
	x := slices.IndexFunc(slot, func(d peer.Descriptor) bool { return d.ID == nodeID })
	if x < 0 {
		return
	}
	for y := range slot {
		if rk[lo+y] > rk[lo+x] {
			rk[lo+y]--
		}
	}
	x += lo
	last := len(run) - 1
	copy(run[x:], run[x+1:])
	copy(rk[x:], rk[x+1:])
	run[last], rk[last] = peer.Descriptor{}, 0
	t.rows[row] = run[:last]
	fills[col]--
	t.n--
	t.version++
}

// Release returns every row block to the arena and drops the rows. The
// table must not be used again by its current owner: the blocks may be
// handed to another node. Safe to call repeatedly.
func (t *PrefixTable) Release() {
	for _, run := range t.rows {
		t.arena.Put(run)
	}
	t.rows, t.meta, t.n = nil, nil, 0
	t.version++
}

// B returns the digit width parameter.
func (t *PrefixTable) B() int { return t.b }

// K returns the per-slot capacity.
func (t *PrefixTable) K() int { return t.k }

// NumRows returns the number of rows (64/b).
func (t *PrefixTable) NumRows() int { return id.NumDigits(t.b) }
