package sampling

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/testenv"
)

func members(n int) []peer.Descriptor {
	out := make([]peer.Descriptor, n)
	for i := range out {
		out[i] = peer.Descriptor{ID: id.ID(i + 1), Addr: peer.Addr(i)}
	}
	return out
}

// TestOracleSampleDistinct draws samples of sizes on either side of the
// 64 indices AppendSample keeps on the stack.
func TestOracleSampleDistinct(t *testing.T) {
	o := NewOracle(members(200), 1)
	for _, n := range []int{10, 64, 65, 150} {
		for trial := 0; trial < 100; trial++ {
			s := o.Sample(n)
			if len(s) != n {
				t.Fatalf("len = %d, want %d", len(s), n)
			}
			seen := make(map[id.ID]struct{})
			for _, d := range s {
				if _, dup := seen[d.ID]; dup {
					t.Fatalf("duplicate %s in a sample of %d", d, n)
				}
				seen[d.ID] = struct{}{}
			}
		}
	}
}

func TestOracleSampleBounds(t *testing.T) {
	o := NewOracle(members(3), 1)
	if got := o.Sample(10); len(got) != 3 {
		t.Errorf("oversized request returned %d, want 3", len(got))
	}
	if got := o.Sample(0); got != nil {
		t.Errorf("zero request returned %v", got)
	}
	if got := o.Sample(-1); got != nil {
		t.Errorf("negative request returned %v", got)
	}
	empty := NewOracle(nil, 1)
	if got := empty.Sample(5); got != nil {
		t.Errorf("empty oracle returned %v", got)
	}
}

func TestOracleUniformity(t *testing.T) {
	const n, draws = 20, 40000
	o := NewOracle(members(n), 7)
	counts := make(map[id.ID]int)
	for i := 0; i < draws; i++ {
		for _, d := range o.Sample(1) {
			counts[d.ID]++
		}
	}
	want := float64(draws) / n
	for nodeID, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.15 {
			t.Errorf("node %s drawn %d times, want ~%.0f", nodeID, c, want)
		}
	}
	if len(counts) != n {
		t.Errorf("only %d of %d members ever sampled", len(counts), n)
	}
}

func TestOracleAddRemove(t *testing.T) {
	o := NewOracle(members(5), 1)
	o.Add(peer.Descriptor{ID: 100, Addr: 99})
	o.Add(peer.Descriptor{ID: 100, Addr: 99}) // idempotent
	if o.Len() != 6 {
		t.Fatalf("len = %d, want 6", o.Len())
	}
	o.Remove(3)
	o.Remove(3) // idempotent
	if o.Len() != 5 {
		t.Fatalf("len = %d, want 5", o.Len())
	}
	// Removed member must never appear again.
	for i := 0; i < 200; i++ {
		for _, d := range o.Sample(5) {
			if d.ID == 3 {
				t.Fatal("removed member sampled")
			}
		}
	}
}

// TestOracleRemoveAllOneSnapshot checks that a churn wave's removals cost
// one member array and its joins none: RemoveAll leaves the membership
// order of one Remove per ID in one fresh array, Adds then append in place,
// and a snapshot taken before the Adds does not see them.
func TestOracleRemoveAllOneSnapshot(t *testing.T) {
	const n, wave = 4096, 41
	o, ref := NewOracle(members(n), 1), NewOracle(members(n), 1)
	// Every 100th member, the last one (no move) and an absent ID.
	var ids []id.ID
	for i := 0; i < wave-2; i++ {
		ids = append(ids, id.ID(1+100*i))
	}
	ids = append(ids, id.ID(n), id.ID(n+1))
	joins := make([]peer.Descriptor, wave)
	for i := range joins {
		joins[i] = peer.Descriptor{ID: id.ID(10000 + i), Addr: peer.Addr(10000 + i)}
	}

	var ms runtime.MemStats
	allocs := func() (uint64, uint64) {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs, ms.TotalAlloc
	}
	m0, b0 := allocs()
	o.RemoveAll(ids)
	m1, b1 := allocs()
	before := o.members()
	for _, d := range joins {
		o.Add(d)
	}
	m2, _ := allocs()
	if !testenv.Race() { // the race detector allocates on its own account
		// One array with headroom, under two copies of the membership (one
		// Remove per ID would copy it 41 times).
		if copies := float64(b1-b0) / float64(n*16); m1-m0 > 2 || copies >= 2 {
			t.Errorf("RemoveAll of %d allocated %d objects, %.2f member arrays; want one array and its header", wave, m1-m0, copies)
		}
		if m2 != m1 {
			t.Errorf("%d Adds after RemoveAll allocated %d objects, want 0", wave, m2-m1)
		}
	}

	for _, d := range ids {
		ref.Remove(d)
	}
	if len(before) != n-(wave-1) || !slices.Equal(before, ref.members()) {
		t.Fatalf("RemoveAll left %d members, not the order of one Remove per ID (%d)", len(before), ref.Len())
	}
	for _, d := range joins {
		ref.Add(d)
	}
	if got := o.members(); !slices.Equal(got, ref.members()) {
		t.Fatal("Adds after RemoveAll left another membership order than after Removes")
	}
	if !slices.Equal(before, ref.members()[:len(before)]) || len(before) != n-(wave-1) {
		t.Fatal("a snapshot taken before the Adds changed")
	}
	for i, d := range o.members() {
		if j, ok := o.pos.Get(d.ID); !ok || j != i {
			t.Fatalf("member %s at %d, indexed at %d", d, i, j)
		}
	}
}

func TestOracleConcurrentAccess(t *testing.T) {
	o := NewOracle(members(100), 1)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				o.Sample(5)
				if g == 0 {
					o.Add(peer.Descriptor{ID: id.ID(1000 + i), Addr: peer.Addr(i)})
				}
				if g == 1 {
					o.Remove(id.ID(1000 + i))
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

func TestFixed(t *testing.T) {
	f := Fixed(members(3))
	if got := f.Sample(2); len(got) != 2 || got[0].ID != 1 {
		t.Errorf("got %v", got)
	}
	if got := f.Sample(10); len(got) != 3 {
		t.Errorf("oversized request returned %d", len(got))
	}
}
