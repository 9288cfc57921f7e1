package truth

import (
	"encoding/binary"
	"testing"

	"repro/internal/id"
)

// FuzzTrieCounts cross-checks the slot counts read off the ring's nested
// prefix runs (an implicit radix trie), and every member's perfect leaf set
// read off the ring walk, against naive scans for arbitrary membership
// sets.
func FuzzTrieCounts(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(3)) // a 2-member ring
	f.Add([]byte{0xAB, 0xCD, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(0))
	f.Add([]byte{0x10, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0x80}, uint8(0), uint8(1)) // an antipodal pair
	f.Fuzz(func(t *testing.T, data []byte, rowRaw, colRaw uint8) {
		var ids []id.ID
		seen := make(map[id.ID]bool)
		for len(data) >= 8 {
			v := id.ID(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if !seen[v] {
				seen[v] = true
				ids = append(ids, v)
			}
		}
		if len(ids) == 0 {
			return
		}
		const b = 4
		tr, err := New(ids, b, len(ids)+1, 8)
		if err != nil {
			t.Fatal(err)
		}
		self := ids[0]
		row := int(rowRaw) % 8
		col := int(colRaw) % 16
		got := availableAt(tr, self, row, col)
		want := 0
		for _, v := range ids {
			if v == self {
				continue
			}
			if id.CommonPrefixLen(self, v, b) == row && v.Digit(row, b) == col {
				want++
			}
		}
		if got != want {
			t.Fatalf("availableAt(%s, %d, %d) = %d, want %d (n=%d)", self, row, col, got, want, len(ids))
		}
		for _, self := range ids {
			checkPerfectLeafSet(t, ids, tr, self)
		}
	})
}
