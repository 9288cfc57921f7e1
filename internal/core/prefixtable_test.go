package core

import (
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/peer"
)

func TestPrefixTableSlot(t *testing.T) {
	// self = 0xA3F0... ; b = 4.
	self := id.ID(0xA3F0000000000000)
	pt := NewPrefixTable(self, 4, 3)
	tests := []struct {
		name     string
		other    id.ID
		row, col int
		ok       bool
	}{
		{"first digit differs", 0xB000000000000000, 0, 0xB, true},
		{"second digit differs", 0xA500000000000000, 1, 5, true},
		{"third digit differs", 0xA3A0000000000000, 2, 0xA, true},
		{"self", self, 0, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			row, col, ok := pt.Slot(tt.other)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if ok && (row != tt.row || col != tt.col) {
				t.Errorf("slot = (%d, %d), want (%d, %d)", row, col, tt.row, tt.col)
			}
		})
	}
}

func TestPrefixTableAdd(t *testing.T) {
	pt := NewPrefixTable(0, 4, 2)
	d1 := peer.Descriptor{ID: 0xF000000000000000, Addr: 1}
	d2 := peer.Descriptor{ID: 0xF100000000000000, Addr: 2}
	d3 := peer.Descriptor{ID: 0xFF00000000000000, Addr: 3}
	if !pt.Add(d1) {
		t.Fatal("first add failed")
	}
	if pt.Add(d1) {
		t.Error("duplicate accepted")
	}
	if !pt.Add(d2) {
		t.Fatal("second distinct add failed")
	}
	// Slot (0, 0xF) now has k=2 entries; d3 also maps there.
	if pt.Add(d3) {
		t.Error("overfull slot accepted an entry")
	}
	if pt.Len() != 2 {
		t.Errorf("len = %d, want 2", pt.Len())
	}
	got := pt.Get(0, 0xF)
	if len(got) != 2 {
		t.Errorf("slot (0, 15) has %d entries, want 2", len(got))
	}
}

func TestPrefixTableRejectsSelf(t *testing.T) {
	pt := NewPrefixTable(42, 4, 3)
	if pt.Add(peer.Descriptor{ID: 42, Addr: 1}) {
		t.Error("self accepted into own table")
	}
}

func TestPrefixTableGetOutOfRange(t *testing.T) {
	pt := NewPrefixTable(0, 4, 3)
	if pt.Get(-1, 0) != nil || pt.Get(99, 0) != nil || pt.Get(0, -1) != nil || pt.Get(0, 99) != nil {
		t.Error("out-of-range Get should return nil")
	}
}

func TestPrefixTableEachAndEntries(t *testing.T) {
	pt := NewPrefixTable(0, 4, 3)
	pt.AddAll([]peer.Descriptor{
		{ID: 0x1000000000000000, Addr: 1},
		{ID: 0x2000000000000000, Addr: 2},
		{ID: 0x0100000000000000, Addr: 3},
	})
	if got := len(pt.Entries()); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	count := 0
	pt.Each(func(row, col int, d peer.Descriptor) bool {
		count++
		wantRow, wantCol, _ := pt.Slot(d.ID)
		if row != wantRow || col != wantCol {
			t.Errorf("entry %s iterated at (%d,%d), want (%d,%d)", d, row, col, wantRow, wantCol)
		}
		return true
	})
	if count != 3 {
		t.Errorf("iterated %d, want 3", count)
	}
	// Early stop.
	count = 0
	pt.Each(func(_, _ int, _ peer.Descriptor) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop iterated %d, want 1", count)
	}
}

func TestPrefixTableRemove(t *testing.T) {
	pt := NewPrefixTable(0, 4, 3)
	d := peer.Descriptor{ID: 0x1000000000000000, Addr: 1}
	pt.Add(d)
	pt.Remove(d.ID)
	if pt.Len() != 0 {
		t.Error("remove failed")
	}
	pt.Remove(d.ID) // idempotent
	pt.Remove(0)    // self: no-op
}

// TestPrefixTableInvariants: after arbitrary inserts every stored entry is
// in its correct slot, no slot exceeds k, and no duplicates exist.
func TestPrefixTableInvariants(t *testing.T) {
	f := func(selfRaw uint64, raw []uint64) bool {
		self := id.ID(selfRaw)
		pt := NewPrefixTable(self, 4, 3)
		for _, v := range raw {
			pt.Add(peer.Descriptor{ID: id.ID(v), Addr: peer.Addr(int32(v))})
		}
		ok := true
		seen := make(map[id.ID]bool)
		perSlot := make(map[[2]int]int)
		pt.Each(func(row, col int, d peer.Descriptor) bool {
			wantRow, wantCol, valid := pt.Slot(d.ID)
			if !valid || row != wantRow || col != wantCol {
				ok = false
				return false
			}
			if seen[d.ID] {
				ok = false
				return false
			}
			seen[d.ID] = true
			perSlot[[2]int{row, col}]++
			if perSlot[[2]int{row, col}] > 3 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrefixTableDifferentBases(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		self := id.ID(0)
		pt := NewPrefixTable(self, b, 1)
		other := id.ID(1) << 62 // digit value depends on b
		if !pt.Add(peer.Descriptor{ID: other, Addr: 1}) {
			t.Errorf("b=%d: add failed", b)
		}
		row, col, _ := pt.Slot(other)
		if got := pt.Get(row, col); len(got) != 1 {
			t.Errorf("b=%d: entry not found in slot (%d,%d)", b, row, col)
		}
		if pt.NumRows() != 64/b {
			t.Errorf("b=%d: rows = %d, want %d", b, pt.NumRows(), 64/b)
		}
	}
}
