package truth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
)

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil, 4, 3, 20); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := New([]id.ID{1, 2, 1}, 4, 3, 20); err == nil {
		t.Error("duplicate membership accepted")
	}
}

// naiveAvailable counts, without the trie, the members whose slot relative
// to self is (row, col).
func naiveAvailable(ids []id.ID, self id.ID, row, col, b int) int {
	n := 0
	for _, v := range ids {
		if v == self {
			continue
		}
		if id.CommonPrefixLen(self, v, b) == row && v.Digit(row, b) == col {
			n++
		}
	}
	return n
}

// expectedSlotCounts returns self's perfect per-slot occupancy, the rows
// expectedSlotCountsInto fills.
func expectedSlotCounts(tr *Truth, self id.ID) [][]int {
	var scr measureScratch
	scr.init(tr)
	return scr.expected[:tr.expectedSlotCountsInto(self, scr.expected)]
}

// availableAt is the trie's count of members whose slot relative to self
// is (row, col). It is uncapped only when tr was built with k > N.
func availableAt(tr *Truth, self id.ID, row, col int) int {
	if e := expectedSlotCounts(tr, self); row < len(e) {
		return e[row][col]
	}
	return 0
}

func TestAvailableAtMatchesNaive(t *testing.T) {
	const b = 4
	rng := rand.New(rand.NewSource(5))
	ids := id.Unique(300, 5)
	tr, err := New(ids, b, len(ids)+1, 20)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		self := ids[rng.Intn(len(ids))]
		row := rng.Intn(6)
		col := rng.Intn(16)
		want := naiveAvailable(ids, self, row, col, b)
		got := availableAt(tr, self, row, col)
		if got != want {
			t.Fatalf("availableAt(%s, %d, %d) = %d, want %d", self, row, col, got, want)
		}
	}
}

func TestAvailableAtSmallBases(t *testing.T) {
	for _, b := range []int{1, 2, 8} {
		ids := id.Unique(100, int64(b))
		tr, err := New(ids, b, len(ids)+1, 20)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(b)))
		for trial := 0; trial < 30; trial++ {
			self := ids[rng.Intn(len(ids))]
			row := rng.Intn(3)
			col := rng.Intn(1 << uint(b))
			if got, want := availableAt(tr, self, row, col), naiveAvailable(ids, self, row, col, b); got != want {
				t.Fatalf("b=%d: availableAt(%s, %d, %d) = %d, want %d", b, self, row, col, got, want)
			}
		}
	}
}

func TestExpectedSlotCountsMatchesNaive(t *testing.T) {
	const b, k = 4, 3
	ids := id.Unique(200, 9)
	tr, err := New(ids, b, k, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		self := ids[rng.Intn(len(ids))]
		expected := expectedSlotCounts(tr, self)
		for row := 0; row < 8; row++ {
			for col := 0; col < 16; col++ {
				want := naiveAvailable(ids, self, row, col, b)
				if want > k {
					want = k
				}
				got := 0
				if row < len(expected) {
					got = expected[row][col]
				}
				if got != want {
					t.Fatalf("self %s slot (%d,%d): expected %d, naive %d", self, row, col, got, want)
				}
			}
		}
	}
}

func TestExpectedSlotCountsOwnDigitZero(t *testing.T) {
	ids := id.Unique(100, 3)
	tr, err := New(ids, 4, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	self := ids[0]
	for row, cols := range expectedSlotCounts(tr, self) {
		if cols[self.Digit(row, 4)] != 0 {
			t.Fatalf("row %d: own-digit slot must be zero", row)
		}
	}
}

// buildRing returns n IDs plus a Truth over them.
func buildRing(t *testing.T, n int, seed int64, c int) ([]id.ID, *Truth) {
	t.Helper()
	ids := id.Unique(n, seed)
	tr, err := New(ids, 4, 3, c)
	if err != nil {
		t.Fatal(err)
	}
	return ids, tr
}

// naivePerfectLeafSet computes the perfect leaf set by brute force over the
// whole membership, mirroring the protocol selection exactly.
func naivePerfectLeafSet(ids []id.ID, self id.ID, c int) map[id.ID]bool {
	ls := core.NewLeafSet(self, c)
	ds := make([]peer.Descriptor, 0, len(ids))
	for i, v := range ids {
		ds = append(ds, peer.Descriptor{ID: v, Addr: peer.Addr(i)})
	}
	ls.Update(ds)
	out := make(map[id.ID]bool, ls.Len())
	for _, d := range ls.Slice() {
		out[d.ID] = true
	}
	return out
}

// perfectLeafSet returns the perfect leaf set of member self, the IDs
// appendPerfectLeafSet derives.
func perfectLeafSet(tr *Truth, self id.ID) []id.ID {
	var scr measureScratch
	scr.init(tr)
	return tr.appendPerfectLeafSet(nil, tr.indexOf(self), &scr)
}

// measureOne measures a single node through MeasureAll.
func measureOne(tr *Truth, self id.ID, ls *core.LeafSet, pt *core.PrefixTable) Aggregate {
	return tr.MeasureAll([]Member{{Self: self, Leaf: ls, Table: pt}}, 1)
}

func TestPerfectLeafSetMatchesBruteForce(t *testing.T) {
	for _, n := range []int{5, 12, 21, 50, 300} {
		const c = 8
		ids, tr := buildRing(t, n, int64(n), c)
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 20; trial++ {
			self := ids[rng.Intn(len(ids))]
			want := naivePerfectLeafSet(ids, self, c)
			got := perfectLeafSet(tr, self)
			if len(got) != len(want) {
				t.Fatalf("n=%d self=%s: size %d, want %d", n, self, len(got), len(want))
			}
			for _, v := range got {
				if !want[v] {
					t.Fatalf("n=%d self=%s: %s not in brute-force set", n, self, v)
				}
			}
		}
	}
}

// TestPerfectLeafSetUnknownSelf: a non-member has no perfect leaf set, so
// measuring it contributes nothing.
func TestPerfectLeafSetUnknownSelf(t *testing.T) {
	_, tr := buildRing(t, 10, 1, 4)
	const self = id.ID(123456789)
	if got := measureOne(tr, self, core.NewLeafSet(self, 4), core.NewPrefixTable(self, 4, 3)); got != (Aggregate{}) {
		t.Errorf("unknown self contributed %+v", got)
	}
}

func TestLeafSetMissingFor(t *testing.T) {
	ids, tr := buildRing(t, 50, 2, 8)
	self := ids[0]
	ls := core.NewLeafSet(self, 8)
	pt := core.NewPrefixTable(self, 4, 3)
	agg := measureOne(tr, self, ls, pt)
	if agg.LeafTotal != 8 {
		t.Fatalf("total = %d, want 8", agg.LeafTotal)
	}
	if agg.LeafMissing != agg.LeafTotal || agg.LeafPerfect != 0 {
		t.Fatalf("empty leaf set should miss everything: %+v", agg)
	}
	// Fill with the perfect entries: zero missing.
	perfect := perfectLeafSet(tr, self)
	ds := make([]peer.Descriptor, len(perfect))
	for i, v := range perfect {
		ds[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	ls.Update(ds)
	if agg = measureOne(tr, self, ls, pt); agg.LeafMissing != 0 || agg.LeafPerfect != 1 {
		t.Fatalf("perfectly filled leaf set missing %d/%d", agg.LeafMissing, agg.LeafTotal)
	}
}

func TestPrefixMissingFor(t *testing.T) {
	ids, tr := buildRing(t, 100, 4, 8)
	self := ids[0]
	ls := core.NewLeafSet(self, 8)
	pt := core.NewPrefixTable(self, 4, 3)
	agg := measureOne(tr, self, ls, pt)
	if agg.PrefixTotal == 0 {
		t.Fatal("expected some perfect prefix entries at n=100")
	}
	if agg.PrefixMissing != agg.PrefixTotal || agg.PrefixPerfect != 0 {
		t.Fatalf("empty table should miss everything: %+v", agg)
	}
	// Insert every member: table perfect (per-slot counts reach min(k, avail)).
	for i, v := range ids {
		pt.Add(peer.Descriptor{ID: v, Addr: peer.Addr(i)})
	}
	if agg = measureOne(tr, self, ls, pt); agg.PrefixMissing != 0 || agg.PrefixPerfect != 1 {
		t.Fatalf("fully fed table still missing %d entries", agg.PrefixMissing)
	}
}

func TestPrefixMissingPartial(t *testing.T) {
	// Two IDs differing in the first digit: each expects exactly 1 entry
	// from the other (plus nothing deeper).
	ids := []id.ID{0x1000000000000000, 0xF000000000000000}
	tr, err := New(ids, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls := core.NewLeafSet(ids[0], 2)
	pt := core.NewPrefixTable(ids[0], 4, 3)
	if agg := measureOne(tr, ids[0], ls, pt); agg.PrefixTotal != 1 || agg.PrefixMissing != 1 {
		t.Fatalf("missing/total = %d/%d, want 1/1", agg.PrefixMissing, agg.PrefixTotal)
	}
	pt.Add(peer.Descriptor{ID: ids[1], Addr: 1})
	if agg := measureOne(tr, ids[0], ls, pt); agg.PrefixTotal != 1 || agg.PrefixMissing != 0 {
		t.Fatalf("after add: missing/total = %d/%d, want 0/1", agg.PrefixMissing, agg.PrefixTotal)
	}
}

// TestTrieInsertionOrderIrrelevant: the trie is a pure function of the
// membership set.
func TestTrieInsertionOrderIrrelevant(t *testing.T) {
	f := func(seed int64) bool {
		ids := id.Unique(64, seed)
		tr1, err1 := New(ids, 4, 3, 8)
		shuffled := make([]id.ID, len(ids))
		copy(shuffled, ids)
		rng := rand.New(rand.NewSource(seed + 1))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		tr2, err2 := New(shuffled, 4, 3, 8)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, self := range ids[:8] {
			e1 := expectedSlotCounts(tr1, self)
			e2 := expectedSlotCounts(tr2, self)
			if len(e1) != len(e2) {
				return false
			}
			for i := range e1 {
				for j := range e1[i] {
					if e1[i][j] != e2[i][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestN(t *testing.T) {
	_, tr := buildRing(t, 33, 1, 4)
	if tr.N() != 33 {
		t.Errorf("N = %d, want 33", tr.N())
	}
}
