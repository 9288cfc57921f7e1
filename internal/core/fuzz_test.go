package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
)

// decodeIDs turns fuzz bytes into a list of IDs (8 bytes each).
func decodeIDs(data []byte) []id.ID {
	out := make([]id.ID, 0, len(data)/8)
	for len(data) >= 8 {
		out = append(out, id.ID(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// FuzzLeafSetUpdate feeds arbitrary ID batches into a leaf set and checks
// that it tracks the unfiltered reference (reference_test.go) and that the
// structural invariants can never be violated.
func FuzzLeafSetUpdate(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint64(100))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(0))
	f.Add([]byte{}, uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, selfRaw uint64) {
		self := id.ID(selfRaw)
		l, ref := NewLeafSet(self, 8), &refLeafSet{self: self, c: 8}
		ids := decodeIDs(data)
		// Feed in two batches to exercise the incremental path.
		mid := len(ids) / 2
		for _, batch := range [][]id.ID{ids[:mid], ids[mid:]} {
			ds := make([]peer.Descriptor, len(batch))
			for i, v := range batch {
				ds[i] = peer.Descriptor{ID: v, Addr: peer.Addr(int32(i))}
			}
			if got, want := l.Update(ds), ref.Update(ds); got != want || !sameLeaf(l, ref) {
				t.Fatalf("Update = %v, reference %v\n got %v | %v\nwant %v | %v",
					got, want, l.Successors(), l.Predecessors(), ref.succ, ref.pred)
			}
		}
		if l.Len() > 8 {
			t.Fatalf("capacity violated: %d", l.Len())
		}
		if l.Contains(self) {
			t.Fatal("self in leaf set")
		}
		seen := make(map[id.ID]bool)
		for _, d := range l.Slice() {
			if seen[d.ID] {
				t.Fatalf("duplicate %s", d)
			}
			seen[d.ID] = true
		}
		for _, d := range l.Successors() {
			if !id.IsSuccessor(self, d.ID) {
				t.Fatalf("%s misclassified as successor of %s", d.ID, self)
			}
		}
		for _, d := range l.Predecessors() {
			if id.IsSuccessor(self, d.ID) {
				t.Fatalf("%s misclassified as predecessor of %s", d.ID, self)
			}
		}
	})
}

// FuzzPrefixTableAdd feeds arbitrary descriptors into a prefix table and
// checks slot placement and capacity invariants.
func FuzzPrefixTableAdd(f *testing.F) {
	f.Add([]byte{0x10, 0, 0, 0, 0, 0, 0, 0}, uint64(0), uint8(4), uint8(2))
	f.Add([]byte{}, uint64(7), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, selfRaw uint64, bRaw, kRaw uint8) {
		b := int(bRaw)%4 + 1 // 1..4, all divide 64
		if b == 3 {
			b = 4
		}
		k := int(kRaw)%3 + 1
		self := id.ID(selfRaw)
		pt := NewPrefixTable(self, b, k)
		for i, v := range decodeIDs(data) {
			pt.Add(peer.Descriptor{ID: v, Addr: peer.Addr(int32(i))})
		}
		count := 0
		pt.Each(func(row, col int, d peer.Descriptor) bool {
			count++
			wr, wc, ok := pt.Slot(d.ID)
			if !ok || wr != row || wc != col {
				t.Fatalf("entry %s in slot (%d,%d), want (%d,%d, ok=%v)", d, row, col, wr, wc, ok)
			}
			return true
		})
		if count != pt.Len() {
			t.Fatalf("Each visited %d, Len says %d", count, pt.Len())
		}
		if err := pt.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
