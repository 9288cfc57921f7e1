package truth

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/testenv"
)

// equivalent asserts that the incrementally maintained oracle answers every
// query exactly like a freshly built one over the same membership.
func equivalent(t *testing.T, inc *Truth, ids []id.ID, b, k, c int) {
	t.Helper()
	fresh, err := New(ids, b, k, c)
	if err != nil {
		t.Fatal(err)
	}
	if inc.N() != fresh.N() {
		t.Fatalf("N = %d, want %d", inc.N(), fresh.N())
	}
	if !reflect.DeepEqual(inc.sorted, fresh.sorted) {
		t.Fatalf("sorted rings diverge:\n inc %v\n new %v", inc.sorted, fresh.sorted)
	}
	for _, v := range ids {
		if !inc.Contains(v) {
			t.Fatalf("member %s missing", v)
		}
		if got, want := perfectLeafSet(inc, v), perfectLeafSet(fresh, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("perfectLeafSet(%s) = %v, want %v", v, got, want)
		}
		if got, want := expectedSlotCounts(inc, v), expectedSlotCounts(fresh, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("expectedSlotCounts(%s) = %v, want %v", v, got, want)
		}
	}
}

func TestUpdateMatchesRebuild(t *testing.T) {
	const b, k, c = 4, 3, 8
	rng := rand.New(rand.NewSource(11))
	gen := id.NewGenerator(12)
	ids := make([]id.ID, 64)
	for i := range ids {
		ids[i] = gen.Next()
	}
	tr, err := New(ids, b, k, c)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		// Remove a random batch, add a random batch.
		nRem := rng.Intn(len(ids) / 4)
		perm := rng.Perm(len(ids))
		removed := make([]id.ID, nRem)
		for i := range removed {
			removed[i] = ids[perm[i]]
		}
		survivors := make([]id.ID, 0, len(ids))
		for _, i := range perm[nRem:] {
			survivors = append(survivors, ids[i])
		}
		added := make([]id.ID, rng.Intn(16)+1)
		for i := range added {
			added[i] = gen.Next()
		}
		if err := tr.Update(added, removed); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids = append(survivors, added...)
		equivalent(t, tr, ids, b, k, c)
	}
}

func TestUpdateLargeBatchMatchesRebuild(t *testing.T) {
	// Batches above the scan/set validation threshold (mass-join path).
	const b, k, c = 4, 3, 8
	gen := id.NewGenerator(21)
	ids := make([]id.ID, 128)
	for i := range ids {
		ids[i] = gen.Next()
	}
	tr, err := New(ids, b, k, c)
	if err != nil {
		t.Fatal(err)
	}
	added := make([]id.ID, 128)
	for i := range added {
		added[i] = gen.Next()
	}
	if err := tr.Update(added, ids[:64]); err != nil {
		t.Fatal(err)
	}
	equivalent(t, tr, append(append([]id.ID{}, ids[64:]...), added...), b, k, c)
}

func TestUpdateRejectsBadDeltas(t *testing.T) {
	ids := []id.ID{10, 20, 30, 40}
	tr, err := New(ids, 4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		added, removed []id.ID
	}{
		{"remove non-member", nil, []id.ID{99}},
		{"add existing member", []id.ID{20}, nil},
		{"add twice in batch", []id.ID{50, 50}, nil},
		{"remove twice in batch", nil, []id.ID{20, 20}},
		{"add and remove same id", []id.ID{20}, []id.ID{20}},
		{"empty membership", nil, []id.ID{10, 20, 30, 40}},
	}
	for _, tc := range cases {
		if err := tr.Update(tc.added, tc.removed); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Failed updates must leave the oracle untouched.
	equivalent(t, tr, ids, 4, 3, 4)
	// Single-ID convenience wrappers share the validation.
	if err := tr.Add(20); err == nil {
		t.Error("Add of existing member accepted")
	}
	if err := tr.Remove(99); err == nil {
		t.Error("Remove of non-member accepted")
	}
	if err := tr.Add(50); err != nil {
		t.Errorf("Add(50): %v", err)
	}
	if err := tr.Remove(10); err != nil {
		t.Errorf("Remove(10): %v", err)
	}
	equivalent(t, tr, []id.ID{20, 30, 40, 50}, 4, 3, 4)
}

func TestUpdateReinsertRemovedID(t *testing.T) {
	// Removing an ID and re-adding it in a LATER batch must restore the
	// exact original oracle (the livenet kill→respawn cycle).
	ids := id.Unique(40, 7)
	tr, err := New(ids, 4, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(nil, ids[:10]); err != nil {
		t.Fatal(err)
	}
	equivalent(t, tr, ids[10:], 4, 3, 8)
	if err := tr.Update(ids[:10], nil); err != nil {
		t.Fatal(err)
	}
	equivalent(t, tr, ids, 4, 3, 8)
}

// TestUpdateAllocs pins a churn cycle's allocations: Update merges the ring
// into its retained spare buffer, so replacing 1 % of the membership costs
// the batch's validation set and nothing that grows with N or with the
// number of cycles applied.
func TestUpdateAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("allocation counts do not hold under -race")
	}
	const runs = 20
	for _, n := range []int{4096, 1 << 14} {
		churn := n / 100
		// The members, then one batch of fresh IDs per call (AllocsPerRun
		// calls once more than runs to warm up).
		ids := id.Unique(n+(runs+1)*churn, int64(n))
		members, fresh := slices.Clip(ids[:n]), ids[n:]
		tr, err := New(members, 4, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		removed := make([]id.ID, churn)
		avg := testing.AllocsPerRun(runs, func() {
			added := fresh[:churn]
			fresh = fresh[churn:]
			// Draw distinct members: each pick moves to the tail, which
			// later picks in the batch skip.
			for j := range removed {
				k, last := rng.Intn(len(members)-j), len(members)-1-j
				members[k], members[last] = members[last], members[k]
				removed[j], members[last] = members[last], added[j]
			}
			if err := tr.Update(added, removed); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 4 {
			t.Errorf("N=%d: Update at 1%% churn allocates %.1f times per call, want at most 4", n, avg)
		}
	}
}

// buildMembers gives every node a partially filled leaf set and prefix
// table so measurement sees a realistic mid-convergence state.
func buildMembers(ids []id.ID, b, k, c int) []Member {
	descs := make([]peer.Descriptor, len(ids))
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(int32(i))}
	}
	members := make([]Member, len(ids))
	w := min(8, len(descs)-1)
	for i, v := range ids {
		ls := core.NewLeafSet(v, c)
		lo := i % (len(descs) - w)
		ls.Update(descs[lo : lo+w])
		pt := core.NewPrefixTable(v, b, k)
		pt.AddAll(descs[(i*13)%len(descs):])
		members[i] = Member{Self: v, Leaf: ls, Table: pt}
	}
	return members
}

// naiveMeasure is the brute-force reference for MeasureAll over the
// current membership ids: the perfect leaf set comes from naivePerfectLeafSet
// over every member, a slot's perfect occupancy is min(k, naiveAvailable),
// and only descriptors of current members occupy anything.
func naiveMeasure(ids []id.ID, members []Member, b, k, c int) Aggregate {
	live := make(map[id.ID]bool, len(ids))
	for _, v := range ids {
		live[v] = true
	}
	var agg Aggregate
	for _, m := range members {
		if !live[m.Self] {
			continue
		}
		perfect := naivePerfectLeafSet(ids, m.Self, c)
		leafMissing := 0
		for v := range perfect {
			if !m.Leaf.Contains(v) {
				leafMissing++
			}
		}
		for _, d := range m.Leaf.Slice() {
			if !live[d.ID] {
				agg.LeafDead++
			}
		}
		have := make(map[[2]int]int)
		m.Table.Each(func(row, col int, d peer.Descriptor) bool {
			if live[d.ID] {
				have[[2]int{row, col}]++
			} else {
				agg.PrefixDead++
			}
			return true
		})
		prefixMissing := 0
		for row := 0; row < id.NumDigits(b); row++ {
			for col := 0; col < 1<<b; col++ {
				want := min(k, naiveAvailable(ids, m.Self, row, col, b))
				agg.PrefixTotal += want
				prefixMissing += max(0, want-have[[2]int{row, col}])
			}
		}
		agg.LeafMissing += leafMissing
		agg.LeafTotal += len(perfect)
		agg.PrefixMissing += prefixMissing
		if leafMissing == 0 {
			agg.LeafPerfect++
		}
		if prefixMissing == 0 {
			agg.PrefixPerfect++
		}
	}
	return agg
}

// TestMeasureAllMatchesNaive pins both measurement entry points — MeasureAll
// at every worker count, and MeasureSampleConf's exact fallback — to the
// brute-force reference, across digit widths, a network small enough for
// the leaf windows to wrap, and departed members whose descriptors linger.
func TestMeasureAllMatchesNaive(t *testing.T) {
	const k, c = 3, 8
	cases := []struct {
		name       string
		n, b       int
		departures int // members removed from the truth after the state is built
	}{
		{"b=1", 96, 1, 0},
		{"b=2", 96, 2, 0},
		{"b=4", 96, 4, 0},
		{"b=8", 96, 8, 0},
		{"n<=c", 6, 4, 0},
		{"departed", 96, 4, 12},
	}
	for _, tc := range cases {
		ids := id.Unique(tc.n, 5)
		tr, err := New(ids, tc.b, k, c)
		if err != nil {
			t.Fatal(err)
		}
		members := buildMembers(ids, tc.b, k, c)
		if err := tr.Update(nil, ids[:tc.departures]); err != nil {
			t.Fatal(err)
		}
		want := naiveMeasure(ids[tc.departures:], members, tc.b, k, c)
		if tc.departures > 0 && (want.LeafDead == 0 || want.PrefixDead == 0) {
			t.Fatalf("%s: reference counts no dead entries: %+v", tc.name, want)
		}
		for _, workers := range []int{1, 2, 3, 7, 32} {
			if got := tr.MeasureAll(members, workers); got != want {
				t.Errorf("%s: MeasureAll(workers=%d) = %+v, want %+v", tc.name, workers, got, want)
			}
		}
		for _, s := range []int{len(members), len(members) + 5} {
			sa := tr.MeasureSampleConf(members, s, 0.95, rand.New(rand.NewSource(1)), 3)
			if !sa.Exact || sa.Sums != want {
				t.Errorf("%s: MeasureSampleConf(%d) = %+v, want exact %+v", tc.name, s, sa, want)
			}
		}
	}
}

func TestMeasureAllDeadEntries(t *testing.T) {
	// Entries naming departed members must count as dead, not as
	// occupancy — measured through a real churn delta.
	const b, k, c = 4, 3, 8
	ids := id.Unique(32, 9)
	tr, err := New(ids, b, k, c)
	if err != nil {
		t.Fatal(err)
	}
	members := buildMembers(ids, b, k, c)
	if err := tr.Update(nil, []id.ID{ids[0]}); err != nil {
		t.Fatal(err)
	}
	agg := tr.MeasureAll(members[1:], 2)
	if agg.LeafDead == 0 && agg.PrefixDead == 0 {
		t.Error("departed member's descriptors not counted dead anywhere")
	}
	// The departed node itself is skipped silently when measured.
	empty := tr.MeasureAll(members[:1], 1)
	if empty != (Aggregate{}) {
		t.Errorf("non-member measurement contributed %+v", empty)
	}
}
