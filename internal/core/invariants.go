package core

import (
	"fmt"
	"slices"

	"repro/internal/id"
	"repro/internal/peer"
)

// CheckInvariants verifies the structural invariants every reachable node
// state satisfies, whatever the messages that led to it: the leaf set holds
// at most c entries, never the node itself, each on the side id.IsSuccessor
// dictates and each direction strictly ascending in directed distance
// (hence duplicate-free); each prefix-table row is strictly ascending by
// ID in a block of a capacity class, each slot's sub-run lies in the slot
// Slot dictates, at most k to a slot, its ranks a permutation of 0…fill−1,
// and nothing is stored past a row's run; and, with the eviction extension
// on, no entry is currently tombstoned. It returns the first violation
// found, nil when there is none. It is a test and debugging aid: no engine
// calls it.
func (n *Node) CheckInvariants() error {
	if err := n.leaf.checkInvariants(); err != nil {
		return fmt.Errorf("node %s: leaf set: %w", n.self.ID, err)
	}
	if err := n.table.checkInvariants(); err != nil {
		return fmt.Errorf("node %s: prefix table: %w", n.self.ID, err)
	}
	if n.evict != nil {
		if err := n.checkTombstones(); err != nil {
			return fmt.Errorf("node %s: %w", n.self.ID, err)
		}
	}
	return nil
}

func (l *LeafSet) checkInvariants() error {
	if l.Len() > l.c {
		return fmt.Errorf("%d entries exceed capacity %d", l.Len(), l.c)
	}
	for _, dir := range []struct {
		name string
		ds   []peer.Descriptor
		succ bool
	}{{"successor", l.succ, true}, {"predecessor", l.pred, false}} {
		for i, d := range dir.ds {
			switch {
			case d.ID == l.self:
				return fmt.Errorf("own ID among the %ss", dir.name)
			case id.IsSuccessor(l.self, d.ID) != dir.succ:
				return fmt.Errorf("%s on the wrong side, among the %ss", d, dir.name)
			// On its own side an entry's ring distance is its directed one.
			case i > 0 && id.RingDistance(l.self, dir.ds[i-1].ID) >= id.RingDistance(l.self, d.ID):
				return fmt.Errorf("%ss out of order or duplicated at %d: %s then %s", dir.name, i, dir.ds[i-1], d)
			}
		}
	}
	return nil
}

func (t *PrefixTable) checkInvariants() error {
	if r := len(t.rows); r > 0 && t.rows[r-1] == nil {
		return fmt.Errorf("rows end at row %d, which is unpopulated", r-1)
	}
	if len(t.meta) != len(t.rows)*t.stride() {
		return fmt.Errorf("%d bytes of fill counts and ranks for %d rows", len(t.meta), len(t.rows))
	}
	n := 0
	for i, run := range t.rows {
		fills, rk := t.fills(i), t.ranks(i)
		if run == nil {
			if slices.ContainsFunc(fills, func(f uint8) bool { return f != 0 }) ||
				slices.ContainsFunc(rk[:t.rowCap()], func(r uint8) bool { return r != 0 }) {
				return fmt.Errorf("row %d unallocated but filled", i)
			}
			continue
		}
		if c := cap(run); c != t.class(c) {
			return fmt.Errorf("row %d block holds %d descriptors, not a capacity class", i, c)
		}
		if slices.ContainsFunc(run[len(run):cap(run)], func(d peer.Descriptor) bool { return d != peer.Descriptor{} }) ||
			slices.ContainsFunc(rk[len(rk):t.rowCap()], func(r uint8) bool { return r != 0 }) {
			return fmt.Errorf("row %d: stale entry or rank past the run", i)
		}
		for x := 1; x < len(run); x++ {
			if run[x-1].ID >= run[x].ID {
				return fmt.Errorf("row %d out of ID order or duplicated at %d: %s then %s", i, x, run[x-1], run[x])
			}
		}
		x := 0
		for j, f := range fills {
			if int(f) > t.k {
				return fmt.Errorf("slot (%d,%d) holds %d entries, k = %d", i, j, f, t.k)
			}
			if x+int(f) > len(run) {
				return fmt.Errorf("row %d holds %d entries, its fills more", i, len(run))
			}
			for y, d := range run[x : x+int(f)] {
				if r, c, ok := t.Slot(d.ID); !ok || r != i || c != j {
					return fmt.Errorf("%s in slot (%d,%d), belongs in (%d,%d) (ok=%v)", d, i, j, r, c, ok)
				}
				if r := rk[x+y]; r >= f || slices.Contains(rk[x:x+y], r) {
					return fmt.Errorf("slot (%d,%d): ranks %v are not a permutation of 0..%d", i, j, rk[x:x+int(f)], f-1)
				}
			}
			x += int(f)
		}
		if x != len(run) {
			return fmt.Errorf("row %d holds %d entries, its fills %d", i, len(run), x)
		}
		n += x
	}
	if n != t.n {
		return fmt.Errorf("slots hold %d entries, Len says %d", n, t.n)
	}
	return nil
}
