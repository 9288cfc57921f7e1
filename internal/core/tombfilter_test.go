package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
)

// handleReference is Handle's eviction step and merge for an answer (no
// reply) as they were before the tomb filter: the sender, every
// certificate and every entry probe the tomb table.
func handleReference(n *Node, m *Message) {
	n.misses.Delete(m.Sender.ID)
	n.tombs.Delete(m.Sender.ID)
	if m.Sender.ID == n.pending.ID {
		n.answered = true
	}
	for _, d := range m.Dead {
		if d == n.self.ID || d == m.Sender.ID || n.tombs.Contains(d) {
			continue
		}
		n.tombs.Put(d, n.ticks+tombstoneTTL)
		n.leaf.Remove(d)
		n.table.Remove(d)
	}
	entries := filterTombstonedReference(n, m.Entries)
	n.updateLeafSet(entries)
	n.updatePrefixTable(entries)
	n.exchanges++
}

// filterTombstonedReference is filterTombstoned with a probe per entry.
func filterTombstonedReference(n *Node, ds []peer.Descriptor) []peer.Descriptor {
	if n.tombs.Len() == 0 {
		return ds
	}
	out := ds[:0]
	for _, d := range ds {
		expiry, dead := n.tombs.Get(d.ID)
		if dead && n.ticks >= expiry {
			n.tombs.Delete(d.ID)
			dead = false
		}
		if !dead {
			out = append(out, d)
		}
	}
	return out
}

// tombCase builds, from seed alone, a node with 0–300 tombstones (about a
// quarter of them expired) and an answer to it whose entries and
// certificates mix tombstoned IDs, IDs that share a filter bit with a
// tombstone without being one, the node itself, the sender and fresh IDs.
// Half the cases draw tiny dense IDs. Two calls with one seed return equal
// states, built by the same operations, so their tomb tables share a
// layout.
func tombCase(seed int64) (*Node, *Message) {
	rng := rand.New(rand.NewSource(seed))
	dense := rng.Intn(2) == 0
	draw := func() id.ID {
		if dense {
			return id.ID(1 + rng.Intn(600))
		}
		return id.ID(rng.Uint64())
	}
	desc := func(i id.ID) peer.Descriptor { return peer.Descriptor{ID: i, Addr: peer.Addr(i%1000 + 1)} }
	self := desc(draw())
	cfg := testConfig()
	cfg.EvictAfterMisses = 2
	n, err := NewNode(self, cfg, sampling.Fixed(nil))
	if err != nil {
		panic(err)
	}
	n.ticks = 100
	var known []peer.Descriptor
	for range 200 {
		if d := draw(); d != self.ID {
			known = append(known, desc(d))
		}
	}
	n.leaf.Update(known)
	n.table.AddAll(known)

	var tombs []id.ID
	if rng.Intn(6) > 0 { // else: no tombstones
		for want := rng.Intn(301); n.tombs.Len() < want; {
			d := draw()
			if d == self.ID || n.tombs.Contains(d) {
				continue
			}
			n.tombs.Put(d, n.ticks-5+rng.Int63n(25)) // expired up to 100
			n.leaf.Remove(d)
			n.table.Remove(d)
			tombs = append(tombs, d)
		}
	}
	// collider returns an ID outside the tomb table on a tombstone's bit.
	collider := func() id.ID {
		if len(tombs) == 0 {
			return draw()
		}
		bit := tombBit(tombs[rng.Intn(len(tombs))])
		for c := draw(); ; c++ {
			if tombBit(c) == bit && c != self.ID && !n.tombs.Contains(c) {
				return c
			}
		}
	}
	pick := func() id.ID {
		switch r := rng.Intn(10); {
		case r < 3 && len(tombs) > 0:
			return tombs[rng.Intn(len(tombs))]
		case r < 5:
			return collider()
		case r == 5:
			return self.ID
		default:
			return draw()
		}
	}

	sender := draw()
	switch rng.Intn(3) {
	case 0:
		if len(tombs) > 0 {
			sender = tombs[rng.Intn(len(tombs))]
		}
	case 1:
		sender = collider()
	}
	if sender == self.ID {
		sender++
	}
	m := &Message{Sender: desc(sender)}
	for range rng.Intn(200) {
		i := pick()
		if rng.Intn(20) == 0 {
			i = sender
		}
		m.Entries = append(m.Entries, desc(i))
	}
	for range rng.Intn(20) {
		i := pick()
		switch rng.Intn(10) {
		case 0:
			i = sender
		case 1:
			if len(m.Dead) > 0 { // a certificate repeated within the message
				i = m.Dead[rng.Intn(len(m.Dead))]
			}
		}
		m.Dead = append(m.Dead, i)
	}
	return n, m
}

// tombsOf lists the tomb table in its Iter order.
func tombsOf(n *Node) (ids []id.ID, expiries []int64) {
	n.tombs.Iter(func(d id.ID, expiry int64) bool {
		ids, expiries = append(ids, d), append(expiries, expiry)
		return true
	})
	return ids, expiries
}

// sameTombs reports whether two nodes hold equal tomb tables in equal Iter
// order.
func sameTombs(a, b *Node) bool {
	ia, ea := tombsOf(a)
	ib, eb := tombsOf(b)
	return slices.Equal(ia, ib) && slices.Equal(ea, eb)
}

// TestTombFilterMatchesProbe holds the filtered tombstone path to the
// probe-per-ID reference: filterTombstoned keeps the same entries and
// leaves the same tomb table in the same Iter order, and Handle leaves
// the same tomb table, leaf set and prefix table, over states where the
// filter has bits set for IDs that are not tombstoned.
func TestTombFilterMatchesProbe(t *testing.T) {
	covered := map[string]bool{}
	for trial := range 400 {
		seed := int64(trial)
		a, ma := tombCase(seed)
		b, mb := tombCase(seed)
		f := a.newTombFilter()
		for _, d := range ma.Entries {
			if f.mayHold(d.ID) && !a.tombs.Contains(d.ID) {
				covered["an entry on a tombstone's bit"] = true
			}
		}
		held := a.tombs.Len()
		got := a.filterTombstoned(slices.Clone(ma.Entries), &f)
		want := filterTombstonedReference(b, slices.Clone(mb.Entries))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: filterTombstoned keeps %v, want %v", trial, got, want)
		}
		if !sameTombs(a, b) {
			t.Fatalf("trial %d: filterTombstoned leaves another tomb table than the reference", trial)
		}
		covered["an entry dropped"] = covered["an entry dropped"] || len(want) < len(mb.Entries)
		covered["an expired tombstone collected"] = covered["an expired tombstone collected"] || a.tombs.Len() < held

		a, ma = tombCase(seed)
		b, mb = tombCase(seed)
		covered["no tombstones"] = covered["no tombstones"] || a.tombs.Len() == 0
		covered["a tombstoned sender"] = covered["a tombstoned sender"] || a.tombs.Contains(ma.Sender.ID)
		before := a.tombs.Len()
		a.Handle(nil, ma.Sender.Addr, ma) // not a request: no reply, ctx unused
		handleReference(b, mb)
		covered["a certificate adopted"] = covered["a certificate adopted"] || a.tombs.Len() > before
		if !sameTombs(a, b) {
			t.Fatalf("trial %d: Handle leaves another tomb table than the reference", trial)
		}
		if !slices.Equal(a.leaf.Slice(), b.leaf.Slice()) {
			t.Fatalf("trial %d: leaf set %v, want %v", trial, a.leaf.Slice(), b.leaf.Slice())
		}
		if !slices.Equal(a.table.Entries(), b.table.Entries()) {
			t.Fatalf("trial %d: prefix table %v, want %v", trial, a.table.Entries(), b.table.Entries())
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	for _, c := range []string{"an entry on a tombstone's bit", "an entry dropped", "an expired tombstone collected",
		"no tombstones", "a tombstoned sender", "a certificate adopted"} {
		if !covered[c] {
			t.Errorf("no trial covered the case %q", c)
		}
	}
}

// BenchmarkHandleChurnShape handles one answer at the shape churn-sim's
// receivers see: 43 tombstones held, 140 entries (one of them tombstoned)
// and 13 death certificates, 3 of them new. The 3 new tombstones are
// deleted after each message, so every message finds the same table.
func BenchmarkHandleChurnShape(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	desc := func() peer.Descriptor {
		i := id.ID(rng.Uint64())
		return peer.Descriptor{ID: i, Addr: peer.Addr(i % 4096)}
	}
	cfg := DefaultConfig()
	cfg.EvictAfterMisses = 2
	n, err := NewNode(desc(), cfg, sampling.Fixed(nil))
	if err != nil {
		b.Fatal(err)
	}
	tombs := make([]id.ID, 43)
	for i := range tombs {
		tombs[i] = desc().ID
		n.tombs.Put(tombs[i], n.ticks+tombstoneTTL)
	}
	entries := make([]peer.Descriptor, 140)
	for i := range entries {
		entries[i] = desc()
	}
	entries[70].ID = tombs[0]
	fresh := []id.ID{desc().ID, desc().ID, desc().ID}
	m := &Message{Sender: desc(), Entries: make([]peer.Descriptor, len(entries)),
		Dead: append(slices.Clone(tombs[1:11]), fresh...)}
	handle := func() {
		m.Entries = append(m.Entries[:0], entries...)
		n.Handle(nil, m.Sender.Addr, m)
		for _, d := range fresh {
			n.tombs.Delete(d)
		}
	}
	handle() // warm: entries learned
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		handle()
	}
}
