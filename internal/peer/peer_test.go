package peer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/id"
)

func d(n uint64) Descriptor { return Descriptor{ID: id.ID(n), Addr: Addr(n % 1000)} }

func TestSetAddDedup(t *testing.T) {
	s := NewSet(4)
	if !s.Add(d(1)) {
		t.Error("first add should succeed")
	}
	if s.Add(d(1)) {
		t.Error("duplicate add should be rejected")
	}
	s.AddAll([]Descriptor{d(2), d(3), d(2)})
	if s.Len() != 3 {
		t.Errorf("len = %d, want 3", s.Len())
	}
	if !s.Contains(2) || s.Contains(99) {
		t.Error("contains misbehaves")
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet(4)
	s.AddAll([]Descriptor{d(1), d(2), d(3)})
	s.Remove(2)
	if s.Len() != 2 || s.Contains(2) {
		t.Fatalf("remove failed: len=%d", s.Len())
	}
	s.Remove(99) // no-op
	if s.Len() != 2 {
		t.Error("removing absent id changed the set")
	}
	// Removing the last element must not corrupt the index.
	s.Remove(3)
	s.Remove(1)
	if s.Len() != 0 {
		t.Errorf("len = %d, want 0", s.Len())
	}
	if !s.Add(d(1)) {
		t.Error("re-adding after removal should succeed")
	}
}

func TestSetRemoveKeepsIndexConsistent(t *testing.T) {
	// Property: after random add/remove interleavings the index agrees
	// with the list.
	rng := rand.New(rand.NewSource(1))
	s := NewSet(8)
	live := make(map[id.ID]struct{})
	for i := 0; i < 2000; i++ {
		v := uint64(rng.Intn(50))
		if rng.Intn(2) == 0 {
			s.Add(d(v))
			live[id.ID(v)] = struct{}{}
		} else {
			s.Remove(id.ID(v))
			delete(live, id.ID(v))
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("len=%d want %d", s.Len(), len(live))
	}
	for _, x := range s.Slice() {
		if _, ok := live[x.ID]; !ok {
			t.Fatalf("stale descriptor %s", x)
		}
		if !s.Contains(x.ID) {
			t.Fatalf("index lost %s", x)
		}
	}
}

func TestSortByRingDistance(t *testing.T) {
	ds := []Descriptor{d(200), d(90), d(110), d(100)}
	SortByRingDistance(ds, 100)
	if ds[0].ID != 100 {
		t.Errorf("self should be first, got %s", ds[0])
	}
	// 90 and 110 are equidistant; tie broken by smaller ID first.
	if ds[1].ID != 90 || ds[2].ID != 110 || ds[3].ID != 200 {
		t.Errorf("unexpected order %v", ds)
	}
}

func TestSortByRingDistanceIsSorted(t *testing.T) {
	f := func(pivot uint64, raw []uint64) bool {
		ds := make([]Descriptor, len(raw))
		for i, v := range raw {
			ds[i] = d(v)
		}
		SortByRingDistance(ds, id.ID(pivot))
		for i := 1; i < len(ds); i++ {
			if id.CompareRing(id.ID(pivot), ds[i-1].ID, ds[i].ID) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithout(t *testing.T) {
	in := []Descriptor{d(1), d(2), d(3)}
	out := Without(in, 2)
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 3 {
		t.Errorf("got %v", out)
	}
}

func TestDescriptorNil(t *testing.T) {
	if (Descriptor{ID: 1, Addr: 3}).Nil() {
		t.Error("real descriptor reported nil")
	}
	if !(Descriptor{ID: 1, Addr: NoAddr}).Nil() {
		t.Error("NoAddr descriptor should be nil")
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet(4)
	s.AddAll([]Descriptor{d(1), d(2), d(3)})
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("len after reset = %d", s.Len())
	}
	if s.Contains(1) {
		t.Error("reset set still contains old ID")
	}
	if !s.Add(d(2)) {
		t.Error("add after reset rejected")
	}
	if s.Len() != 1 || !s.Contains(2) {
		t.Error("set unusable after reset")
	}
}
