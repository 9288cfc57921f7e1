package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/peer"
)

func desc(n uint64) peer.Descriptor { return peer.Descriptor{ID: id.ID(n), Addr: peer.Addr(n % 10000)} }

func descs(ns ...uint64) []peer.Descriptor {
	out := make([]peer.Descriptor, len(ns))
	for i, n := range ns {
		out[i] = desc(n)
	}
	return out
}

func TestLeafSetBasicSelection(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 102, 103, 99, 98, 97))
	// c/2 = 2 closest successors: 101, 102; 2 closest predecessors: 99, 98.
	succ := l.Successors()
	pred := l.Predecessors()
	if len(succ) != 2 || succ[0].ID != 101 || succ[1].ID != 102 {
		t.Errorf("successors = %v", succ)
	}
	if len(pred) != 2 || pred[0].ID != 99 || pred[1].ID != 98 {
		t.Errorf("predecessors = %v", pred)
	}
}

func TestLeafSetIgnoresSelfAndDuplicates(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(100, 101, 101, 102))
	if l.Contains(100) {
		t.Error("leaf set contains self")
	}
	if l.Len() != 2 {
		t.Errorf("len = %d, want 2", l.Len())
	}
}

func TestLeafSetTopUpFromOtherDirection(t *testing.T) {
	// Only successors exist: the set must fill with c closest successors.
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 102, 103, 104, 105))
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	ids := make(map[id.ID]bool)
	for _, d := range l.Slice() {
		ids[d.ID] = true
	}
	for _, want := range []id.ID{101, 102, 103, 104} {
		if !ids[want] {
			t.Errorf("missing %d from topped-up set %v", want, l.Slice())
		}
	}
}

func TestLeafSetUpdateImproves(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(200, 300, 50, 40))
	if changed := l.Update(descs(101, 99)); !changed {
		t.Error("closer peers should change the set")
	}
	if !l.Contains(101) || !l.Contains(99) {
		t.Error("closest peers evicted")
	}
	if changed := l.Update(descs(5000, 6000)); changed {
		t.Error("far peers should not change a set of closer peers")
	}
}

func TestLeafSetUpdateNoNewInfo(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 99))
	if l.Update(descs(101, 99, 100)) {
		t.Error("re-offering known peers reported a change")
	}
	if l.Update(nil) {
		t.Error("empty update reported a change")
	}
}

func TestLeafSetWraparound(t *testing.T) {
	top := ^uint64(0)
	l := NewLeafSet(id.ID(top-1), 4)
	l.Update(descs(top, 0, 1, top-2, top-3))
	// Successors of top-1 clockwise: top, 0, 1. Predecessors: top-2, top-3.
	succ := l.Successors()
	if len(succ) != 2 || succ[0].ID != id.ID(top) || succ[1].ID != 0 {
		t.Errorf("wraparound successors = %v", succ)
	}
	pred := l.Predecessors()
	if len(pred) != 2 || pred[0].ID != id.ID(top-2) || pred[1].ID != id.ID(top-3) {
		t.Errorf("wraparound predecessors = %v", pred)
	}
}

func TestLeafSetRemove(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 102, 99, 98))
	l.Remove(101)
	if l.Contains(101) || l.Len() != 3 {
		t.Errorf("remove failed: %v", l.Slice())
	}
	l.Remove(98)
	if l.Contains(98) || l.Len() != 2 {
		t.Errorf("remove failed: %v", l.Slice())
	}
}

// TestLeafSetMatchesReferenceSelection cross-checks the incremental Update
// against a brute-force reference: feed a random pool in random batches and
// compare with selecting directly from the whole pool.
func TestLeafSetMatchesReferenceSelection(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		self := id.ID(rng.Uint64())
		pool := make([]peer.Descriptor, 0, len(raw))
		seen := map[id.ID]bool{self: true}
		for _, v := range raw {
			if seen[id.ID(v)] {
				continue
			}
			seen[id.ID(v)] = true
			pool = append(pool, desc(v))
		}
		const c = 8
		l := NewLeafSet(self, c)
		// Feed in random batches.
		perm := rng.Perm(len(pool))
		for start := 0; start < len(perm); {
			n := 1 + rng.Intn(4)
			if start+n > len(perm) {
				n = len(perm) - start
			}
			batch := make([]peer.Descriptor, 0, n)
			for _, pi := range perm[start : start+n] {
				batch = append(batch, pool[pi])
			}
			l.Update(batch)
			start += n
		}
		// Reference: one-shot selection over everything.
		ref := NewLeafSet(self, c)
		ref.Update(pool)
		got := idsOf(l.Slice())
		want := idsOf(ref.Slice())
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func idsOf(ds []peer.Descriptor) []id.ID {
	out := make([]id.ID, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLeafSetInvariants checks structural invariants after arbitrary update
// sequences: capacity respected, directions sorted, no self, no duplicates.
func TestLeafSetInvariants(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		self := id.ID(seed)
		l := NewLeafSet(self, 10)
		for _, v := range raw {
			l.Update(descs(v, v+1, v*3))
		}
		if l.Len() > 10 {
			return false
		}
		if l.Contains(self) {
			return false
		}
		seen := make(map[id.ID]bool)
		for _, d := range l.Slice() {
			if seen[d.ID] {
				return false
			}
			seen[d.ID] = true
		}
		succ := l.Successors()
		for i := 1; i < len(succ); i++ {
			if id.Succ(self, succ[i-1].ID) >= id.Succ(self, succ[i].ID) {
				return false
			}
		}
		pred := l.Predecessors()
		for i := 1; i < len(pred); i++ {
			if id.Pred(self, pred[i-1].ID) >= id.Pred(self, pred[i].ID) {
				return false
			}
		}
		for _, d := range succ {
			if !id.IsSuccessor(self, d.ID) {
				return false
			}
		}
		for _, d := range pred {
			if id.IsSuccessor(self, d.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
