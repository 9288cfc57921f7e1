package truth

import (
	"math/rand"
	"sort"
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

// naiveAvailable counts, by a scan of the whole membership, the members
// whose slot relative to self is (row, col).
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

// availableAt is the oracle's count of members whose slot relative to self
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
// whole membership: every other member classified by id.IsSuccessor, each
// side sorted by distance, and the selection rule's top-up written out here
// rather than taken from core.
func naivePerfectLeafSet(ids []id.ID, self id.ID, c int) map[id.ID]bool {
	var succ, pred []id.ID
	for _, v := range ids {
		switch {
		case v == self:
		case id.IsSuccessor(self, v):
			succ = append(succ, v)
		default:
			pred = append(pred, v)
		}
	}
	sort.Slice(succ, func(i, j int) bool { return id.Succ(self, succ[i]) < id.Succ(self, succ[j]) })
	sort.Slice(pred, func(i, j int) bool { return id.Pred(self, pred[i]) < id.Pred(self, pred[j]) })
	half := c / 2
	nSucc, nPred := min(len(succ), half), min(len(pred), half)
	if spare := c - nSucc - nPred; spare > 0 {
		nSucc = min(len(succ), nSucc+spare)
	}
	if spare := c - nSucc - nPred; spare > 0 {
		nPred = min(len(pred), nPred+spare)
	}
	out := make(map[id.ID]bool, nSucc+nPred)
	for _, v := range succ[:nSucc] {
		out[v] = true
	}
	for _, v := range pred[:nPred] {
		out[v] = true
	}
	return out
}

// perfectLeafSet returns the perfect leaf set of member self, the IDs
// appendPerfectLeafSet derives.
func perfectLeafSet(tr *Truth, self id.ID) []id.ID {
	return tr.appendPerfectLeafSet(nil, tr.indexOf(self))
}

// checkPerfectLeafSet fails t unless perfectLeafSet derives for member
// self of tr, a ring over ids, exactly naivePerfectLeafSet's set.
func checkPerfectLeafSet(t *testing.T, ids []id.ID, tr *Truth, self id.ID) {
	t.Helper()
	want := naivePerfectLeafSet(ids, self, tr.c)
	got := perfectLeafSet(tr, self)
	if len(got) != len(want) {
		t.Fatalf("n=%d self=%s: size %d, want %d", len(ids), self, len(got), len(want))
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("n=%d self=%s: %s not in brute-force set", len(ids), self, v)
		}
	}
}

// TestSuccessor: the owner of a point is the first member clockwise from
// it, the point itself included, wrapping past the largest ID.
func TestSuccessor(t *testing.T) {
	tr, err := New([]id.ID{30, 10, 20}, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ point, want id.ID }{
		{5, 10}, {10, 10}, {11, 20}, {25, 30}, {30, 30}, {31, 10}, {^id.ID(0), 10},
	} {
		if got := tr.Successor(c.point); got != c.want {
			t.Errorf("Successor(%d) = %d, want %d", c.point, got, c.want)
		}
	}
}

// TestLeafMissingMatchesNaive: LeafMissing counts the brute-force perfect
// leaf set's entries a leaf set lacks, out of that set's size, on rings
// small enough for the antipode split to matter and on larger ones.
func TestLeafMissingMatchesNaive(t *testing.T) {
	const c = 8
	for _, n := range []int{3, 5, 12, 21, 50, 300} {
		ids, tr := buildRing(t, n, int64(n), c)
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 20; trial++ {
			self := ids[rng.Intn(len(ids))]
			ls := core.NewLeafSet(self, c)
			var ds []peer.Descriptor
			for i, v := range ids {
				if rng.Intn(3) == 0 {
					ds = append(ds, peer.Descriptor{ID: v, Addr: peer.Addr(i)})
				}
			}
			ls.Update(ds)
			perfect := naivePerfectLeafSet(ids, self, c)
			want := 0
			for v := range perfect {
				if !ls.Contains(v) {
					want++
				}
			}
			missing, total := tr.LeafMissing(self, ls)
			if missing != want || total != len(perfect) {
				t.Fatalf("n=%d self=%s: LeafMissing = %d/%d, want %d/%d", n, self, missing, total, want, len(perfect))
			}
		}
	}
	_, tr := buildRing(t, 10, 1, c)
	const stranger = id.ID(123456789)
	if missing, total := tr.LeafMissing(stranger, core.NewLeafSet(stranger, c)); missing != 0 || total != 0 {
		t.Errorf("non-member read %d/%d, want 0/0", missing, total)
	}
}

// measureOne measures a single node through MeasureAll.
func measureOne(tr *Truth, self id.ID, ls *core.LeafSet, pt *core.PrefixTable) Aggregate {
	return tr.MeasureAll([]Member{{Self: self, Leaf: ls, Table: pt}}, 1)
}

func TestPerfectLeafSetMatchesBruteForce(t *testing.T) {
	const c = 8
	for _, n := range []int{5, 12, 21, 50, 300} {
		ids, tr := buildRing(t, n, int64(n), c)
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 20; trial++ {
			checkPerfectLeafSet(t, ids, tr, ids[rng.Intn(len(ids))])
		}
	}
	// Rings of antipodal pairs (plus one lone member when n is odd): each
	// member's antipode sits exactly where id.IsSuccessor still says
	// successor, and small rings make both walks meet it.
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 3*c; n++ {
		var ids []id.ID
		for len(ids) < n {
			v := id.ID(rng.Uint64())
			if n-len(ids) >= 2 {
				ids = append(ids, v, v+1<<63)
			} else {
				ids = append(ids, v)
			}
		}
		tr, err := New(ids, 4, 3, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, self := range ids {
			checkPerfectLeafSet(t, ids, tr, self)
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

// TestSlotCountsInsertionOrderIrrelevant: perfect slot occupancy is a pure
// function of the membership set, not of the order New receives it in.
func TestSlotCountsInsertionOrderIrrelevant(t *testing.T) {
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
