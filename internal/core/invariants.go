package core

import (
	"fmt"

	"repro/internal/id"
	"repro/internal/peer"
)

// CheckInvariants verifies the structural invariants every reachable node
// state satisfies, whatever the messages that led to it: the leaf set holds
// at most c entries, never the node itself, each on the side id.IsSuccessor
// dictates and each direction strictly ascending in directed distance
// (hence duplicate-free); every prefix-table entry sits in the slot Slot
// dictates, at most k to a slot, no ID twice; and no entry is currently
// tombstoned. It returns the first violation found, nil when there is
// none. It is a test and debugging aid: no engine calls it.
func (n *Node) CheckInvariants() error {
	if err := n.leaf.checkInvariants(); err != nil {
		return fmt.Errorf("node %s: leaf set: %w", n.self.ID, err)
	}
	if err := n.table.checkInvariants(); err != nil {
		return fmt.Errorf("node %s: prefix table: %w", n.self.ID, err)
	}
	for _, ds := range [][]peer.Descriptor{n.leaf.succ, n.leaf.pred, n.table.Entries()} {
		for _, d := range ds {
			if expiry, ok := n.tombs.Get(d.ID); ok && n.ticks < expiry {
				return fmt.Errorf("node %s: holds %s, tombstoned until tick %d (now %d)", n.self.ID, d, expiry, n.ticks)
			}
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
	for i, row := range t.rows {
		for j, slot := range row {
			if len(slot) > t.k {
				return fmt.Errorf("slot (%d,%d) holds %d entries, k = %d", i, j, len(slot), t.k)
			}
			for x, d := range slot {
				if r, c, ok := t.Slot(d.ID); !ok || r != i || c != j {
					return fmt.Errorf("%s in slot (%d,%d), belongs in (%d,%d) (ok=%v)", d, i, j, r, c, ok)
				}
				if containsID(slot[:x], d.ID) {
					return fmt.Errorf("%s twice in slot (%d,%d)", d, i, j)
				}
			}
		}
	}
	return nil
}
