package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// This file keeps the constructions createMessage, LeafSet.Update and
// PrefixTable replaced — hash-dedupe into a peer.Set then comparison-sort
// by ring distance; merge everything then re-sort both directions; one
// slice per slot — as references, and holds the merge-and-walk, the
// admission filter and the ID-ordered rows to them, element for element,
// over states built to sit on the edges of ring arithmetic and slot
// capacity.

// referenceEntries is CreateMessage as it was: the union as a peer.Set in
// the order self, successors, predecessors, samples, table (first
// descriptor of an ID wins), the destination removed, everything sorted by
// ring distance from q with the ID breaking ties, truncated.
func referenceEntries(n *Node, q peer.Descriptor) []peer.Descriptor {
	var union peer.Set
	union.Add(n.self)
	union.AddAll(n.leaf.Successors())
	union.AddAll(n.leaf.Predecessors())
	if n.cfg.CR > 0 {
		union.AddAll(n.sampler.Sample(n.cfg.CR))
	}
	if !n.cfg.DisablePrefixFeedback {
		union.AddAll(n.table.Entries())
	}
	union.Remove(q.ID)
	nBase := min(n.cfg.C, union.Len())
	nExtra := 0
	if !n.cfg.DisablePrefixFeedback {
		nExtra = min(union.Len()-nBase, n.cfg.TableCapacity())
	}
	ds := union.Copy()
	peer.SortByRingDistance(ds, q.ID)
	return ds[:nBase+nExtra]
}

// refLeafSet is LeafSet.Update as it was, without the admission filter:
// every call pools the kept entries with all candidates and re-selects.
type refLeafSet struct {
	self       id.ID
	c          int
	succ, pred []peer.Descriptor
}

func (r *refLeafSet) Update(ds []peer.Descriptor) bool {
	var pool peer.Set
	pool.AddAll(r.succ)
	pool.AddAll(r.pred)
	added := false
	for _, d := range ds {
		if d.ID != r.self && pool.Add(d) {
			added = true
		}
	}
	if !added {
		return false
	}
	old := append(slices.Clone(r.succ), r.pred...)
	var succ, pred []peer.Descriptor
	for _, d := range pool.Slice() {
		if id.IsSuccessor(r.self, d.ID) {
			succ = append(succ, d)
		} else {
			pred = append(pred, d)
		}
	}
	sort.Slice(succ, func(i, j int) bool { return id.Succ(r.self, succ[i].ID) < id.Succ(r.self, succ[j].ID) })
	sort.Slice(pred, func(i, j int) bool { return id.Pred(r.self, pred[i].ID) < id.Pred(r.self, pred[j].ID) })
	half := r.c / 2
	nSucc, nPred := min(len(succ), half), min(len(pred), half)
	if spare := r.c - nSucc - nPred; spare > 0 {
		nSucc = min(len(succ), nSucc+spare)
	}
	if spare := r.c - nSucc - nPred; spare > 0 {
		nPred = min(len(pred), nPred+spare)
	}
	r.succ, r.pred = succ[:nSucc], pred[:nPred]
	if len(r.succ)+len(r.pred) != len(old) {
		return true
	}
	for _, d := range append(slices.Clone(r.succ), r.pred...) {
		if !containsID(old, d.ID) {
			return true
		}
	}
	return false
}

func (r *refLeafSet) Remove(nodeID id.ID) {
	gone := func(d peer.Descriptor) bool { return d.ID == nodeID }
	r.succ = slices.DeleteFunc(r.succ, gone)
	r.pred = slices.DeleteFunc(r.pred, gone)
}

// sameLeaf compares a leaf set with the reference descriptor for
// descriptor — Addr included, so "first descriptor of an ID wins" is held.
func sameLeaf(l *LeafSet, r *refLeafSet) bool {
	return slices.Equal(l.Successors(), r.succ) && slices.Equal(l.Predecessors(), r.pred)
}

// edgeIDs draws n IDs from the places ring arithmetic can go wrong: both
// ends of the ID space (the wrap), mirrored pairs pivot±d (ring-distance
// ties seen from pivot), the neighbourhood of pivot's antipode and of pivot
// itself, and uniform ones. Repeats are likely and wanted.
func edgeIDs(rng *rand.Rand, pivot id.ID, n int) []id.ID {
	out := make([]id.ID, 0, n+1)
	for len(out) < n {
		small := id.ID(rng.Intn(9))
		switch rng.Intn(6) {
		case 0:
			out = append(out, small)
		case 1:
			out = append(out, ^small)
		case 2:
			d := id.ID(rng.Uint64() >> uint(rng.Intn(64)))
			out = append(out, pivot+d, pivot-d)
		case 3:
			out = append(out, pivot+1<<63+small-4)
		case 4:
			out = append(out, pivot+small-4)
		default:
			out = append(out, id.ID(rng.Uint64()))
		}
	}
	return out[:n]
}

// pickDescs returns up to limit descriptors over random members of ids, all
// carrying the given address: the same ID picked for two sources differs in
// Addr, so which source won is visible in a message.
func pickDescs(rng *rand.Rand, ids []id.ID, limit int, addr peer.Addr) []peer.Descriptor {
	out := make([]peer.Descriptor, rng.Intn(limit+1))
	for i := range out {
		out[i] = peer.Descriptor{ID: ids[rng.Intn(len(ids))], Addr: addr}
	}
	return out
}

func oneOf(rng *rand.Rand, choices ...int) int { return choices[rng.Intn(len(choices))] }

// TestCreateMessageMatchesReference holds the merge-and-walk construction
// to the set-and-sort one over seeded random node states, and every state
// Handle moves them to, to CheckInvariants.
func TestCreateMessageMatchesReference(t *testing.T) {
	covered := map[string]bool{}
	for trial := 0; trial < 600; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pivot := []id.ID{0, ^id.ID(0), id.ID(rng.Uint64())}[rng.Intn(3)]
		ids := edgeIDs(rng, pivot, 1+rng.Intn(400))
		cfg := Config{
			B: oneOf(rng, 1, 2, 4, 8), K: oneOf(rng, 1, 3), C: oneOf(rng, 2, 4, 8, 20),
			CR: oneOf(rng, 0, 5, 30, 300), Delta: 1,
			DisablePrefixFeedback: rng.Intn(4) == 0,
			EvictAfterMisses:      oneOf(rng, 0, 0, 2),
		}
		if rng.Intn(6) == 0 { // smallest table (128 slots), most samples: a union the message must truncate
			cfg.B, cfg.K, cfg.C, cfg.CR, cfg.DisablePrefixFeedback = 1, 1, 2, 300, false
		}
		samples := pickDescs(rng, ids, 2*cfg.CR, 0)
		for i := range samples { // an ID sampled twice: the first must win
			samples[i].Addr = peer.Addr(100 + i)
		}
		self := peer.Descriptor{ID: ids[rng.Intn(len(ids))], Addr: 0}
		n, err := NewNode(self, cfg, sampling.Fixed(samples))
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) > 0 { // else: empty leaf set
			n.leaf.Update(pickDescs(rng, ids, len(ids), 1))
		}
		if rng.Intn(4) > 0 { // else: empty table
			n.table.AddAll(pickDescs(rng, ids, len(ids), 2))
		}
		mirror := &refLeafSet{self: self.ID, c: cfg.C,
			succ: slices.Clone(n.leaf.succ), pred: slices.Clone(n.leaf.pred)}

		for round := 0; round < 4; round++ {
			q := peer.Descriptor{ID: []id.ID{pivot, ids[rng.Intn(len(ids))], id.ID(rng.Uint64())}[rng.Intn(3)], Addr: 9}
			want := referenceEntries(n, q)
			m := n.createMessage(q, true)
			if !slices.Equal(m.Entries, want) {
				t.Fatalf("trial %d round %d (cfg %+v, self %s, q %s): entries diverge from the set-and-sort reference\n got %v\nwant %v",
					trial, round, cfg, self, q, m.Entries, want)
			}
			limit := cfg.C
			if !cfg.DisablePrefixFeedback {
				limit += cfg.TableCapacity()
			}
			covered["union under C"] = covered["union under C"] || len(want) < cfg.C
			covered["union over C + table capacity"] = covered["union over C + table capacity"] ||
				(!cfg.DisablePrefixFeedback && len(want) == limit)
			covered["q in the union"] = covered["q in the union"] ||
				q.ID == self.ID || n.leaf.Contains(q.ID)
			for i := 1; i < len(want); i++ {
				if id.CompareRing(q.ID, want[i-1].ID, want[i].ID) == 0 {
					covered["ring-distance tie"] = true
				}
			}
			if len(want) > 0 && id.Succ(q.ID, want[len(want)-1].ID) == 1<<63 {
				covered["exact antipode"] = true
			}

			// The sweep probe indexes the structures in place: same victim and
			// same RNG use (no draw from an empty node) as indexing the
			// materialised successors + predecessors + table.
			all := append(n.leaf.Slice(), n.table.Entries()...)
			seed := rng.Int63()
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			victim := peer.None
			if len(all) > 0 {
				victim = all[r2.Intn(len(all))]
			}
			if got := n.sweepTarget(r1); got != victim || r1.Int63() != r2.Int63() {
				t.Fatalf("trial %d round %d: sweepTarget = %s, want %s (or the RNG was used differently)", trial, round, got, victim)
			}

			from := peer.Descriptor{ID: ids[rng.Intn(len(ids))], Addr: 7}
			in := &Message{Sender: from, Entries: pickDescs(rng, ids, 200, 4)}
			if cfg.EvictAfterMisses > 0 {
				in.Dead = edgeIDs(rng, pivot, rng.Intn(4))
			}
			n.Handle(nil, from.Addr, in) // not a request: no reply, ctx unused
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("trial %d round %d (cfg %+v): %v", trial, round, cfg, err)
			}
			if cfg.EvictAfterMisses == 0 { // else tombstones filter what the mirror is fed
				mirror.Update(in.Entries)
				if !sameLeaf(n.leaf, mirror) {
					t.Fatalf("trial %d round %d: leaf set diverges from the unfiltered reference\n got %v | %v\nwant %v | %v",
						trial, round, n.leaf.succ, n.leaf.pred, mirror.succ, mirror.pred)
				}
			}
		}
	}
	for _, c := range []string{"union under C", "union over C + table capacity", "q in the union", "ring-distance tie", "exact antipode"} {
		if !covered[c] {
			t.Errorf("no trial covered the case %q", c)
		}
	}
}

// TestLeafSetUpdateMatchesReference holds the filtered Update to the
// unfiltered one — same successors, predecessors and return value after
// every call — for even and odd c, pools fed from one side only (top-up in
// each direction), the exact antipode, candidates that repeat kept entries
// or the boundary entry under another address, and holes punched by Remove.
func TestLeafSetUpdateMatchesReference(t *testing.T) {
	for trial := 0; trial < 800; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := 1 + rng.Intn(9)
		self := []id.ID{0, ^id.ID(0), id.ID(rng.Uint64())}[rng.Intn(3)]
		l, ref := NewLeafSet(self, c), &refLeafSet{self: self, c: c}
		sides := oneOf(rng, 0, 1, 2) // which side the first half of the steps feeds: succ, pred, both
		for step := 0; step < 40; step++ {
			if step == 20 {
				sides = 2
			}
			batch := make([]peer.Descriptor, rng.Intn(12))
			for i := range batch {
				d := id.ID(1 + rng.Intn(3*c))
				switch rng.Intn(16) {
				case 0, 1:
					d = id.ID(rng.Uint64() >> 1)
				case 2:
					d = 1 << 63 // the antipode, which id.IsSuccessor counts as a successor
				}
				if sides == 1 || (sides == 2 && rng.Intn(2) == 0) {
					d = -d
				}
				batch[i] = peer.Descriptor{ID: self + d, Addr: peer.Addr(step)}
			}
			if kept := l.Slice(); len(kept) > 0 && rng.Intn(2) == 0 {
				// A kept entry again under another address: any of them,
				// or the farthest successor or predecessor (the boundary).
				again := [][]peer.Descriptor{kept, l.succ, l.pred}[rng.Intn(3)]
				if len(again) > 0 {
					d := again[len(again)-1]
					if rng.Intn(2) == 0 {
						d = again[rng.Intn(len(again))]
					}
					d.Addr = -5
					batch = append(batch, d)
				}
			}
			got, want := l.Update(batch), ref.Update(batch)
			if got != want || !sameLeaf(l, ref) {
				t.Fatalf("trial %d step %d (self %s, c %d, batch %v): Update = %v, reference %v\n got %v | %v\nwant %v | %v",
					trial, step, self, c, batch, got, want, l.succ, l.pred, ref.succ, ref.pred)
			}
			if err := l.checkInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if kept := l.Slice(); len(kept) > 0 && rng.Intn(6) == 0 {
				gone := kept[rng.Intn(len(kept))].ID
				l.Remove(gone)
				ref.Remove(gone)
			}
		}
	}
}

// FuzzCreateMessageMatchesReference splits fuzzed IDs over the leaf set,
// the table and the sampler and compares the shipped entries with the
// set-and-sort reference, before and after the node handles a message.
func FuzzCreateMessageMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 3, 0, 0, 0, 0, 0, 0, 0x80}, uint64(2), uint64(2), uint8(1))
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, ^uint64(0), uint64(7), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, selfRaw, qRaw uint64, knobs uint8) {
		ids := decodeIDs(data)
		cfg := Config{B: 4, K: 2, C: 4, CR: 6, Delta: 1, DisablePrefixFeedback: knobs&1 != 0}
		if knobs&2 != 0 {
			cfg.B, cfg.K, cfg.C, cfg.CR = 1, 1, 2, 0
		}
		src := func(part int, addr peer.Addr) []peer.Descriptor {
			var out []peer.Descriptor
			for i, v := range ids {
				if i%4 == part || i%4 == 3 { // every fourth ID goes to all three sources
					out = append(out, peer.Descriptor{ID: v, Addr: addr})
				}
			}
			return out
		}
		n, err := NewNode(peer.Descriptor{ID: id.ID(selfRaw)}, cfg, sampling.Fixed(src(2, 3)))
		if err != nil {
			t.Fatal(err)
		}
		n.leaf.Update(src(0, 1))
		n.table.AddAll(src(1, 2))
		q := peer.Descriptor{ID: id.ID(qRaw), Addr: 9}
		for round := 0; round < 2; round++ {
			want := referenceEntries(n, q)
			if got := n.createMessage(q, false).Entries; !slices.Equal(got, want) {
				t.Fatalf("round %d: entries diverge from the set-and-sort reference\n got %v\nwant %v", round, got, want)
			}
			n.Handle(nil, 7, &Message{Sender: peer.Descriptor{ID: id.ID(qRaw), Addr: 7}, Entries: src(3, 4)})
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// invariantChecked drives a Node under an engine with CheckInvariants
// after every Handle.
type invariantChecked struct {
	*Node
	t *testing.T
}

func (c invariantChecked) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	c.Node.Handle(ctx, from, msg)
	if err := c.CheckInvariants(); err != nil {
		c.t.Error(err)
	}
}

// TestCheckInvariantsDetects corrupts a sound node one way at a time: a
// checker that cannot fail checks nothing.
func TestCheckInvariantsDetects(t *testing.T) {
	build := func() *Node {
		cfg := testConfig()
		cfg.EvictAfterMisses = 2
		n, err := NewNode(peer.Descriptor{ID: 1000}, cfg, sampling.Fixed(nil))
		if err != nil {
			t.Fatal(err)
		}
		n.leaf.Update(descs(1001, 1002, 1003, 999, 998))
		n.table.AddAll(descs(1001, 0xF000000000000000, 0xF000000000000001))
		return n
	}
	if err := build().CheckInvariants(); err != nil {
		t.Fatalf("sound node rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*Node){
		"successors out of order":      func(n *Node) { n.leaf.succ[0], n.leaf.succ[1] = n.leaf.succ[1], n.leaf.succ[0] },
		"predecessor among successors": func(n *Node) { n.leaf.succ[2] = desc(997) },
		"self in the leaf set":         func(n *Node) { n.leaf.pred[0] = desc(1000) },
		// Row 0 holds the two 0xF… IDs, slot (0, 15), in a block of class
		// k = 3; row 15 holds 1001.
		"entry in the wrong slot":       func(n *Node) { n.table.rows[0][0] = desc(0xE000000000000000) },
		"entry twice in a slot":         func(n *Node) { n.table.rows[0][1] = n.table.rows[0][0] },
		"run out of ID order":           func(n *Node) { n.table.rows[0][0], n.table.rows[0][1] = n.table.rows[0][1], n.table.rows[0][0] },
		"duplicate rank":                func(n *Node) { rk := n.table.ranks(0); rk[1] = rk[0] },
		"stale descriptor past the run": func(n *Node) { n.table.rows[0][:3][2] = desc(0xF000000000000002) },
		"slot filled past k":            func(n *Node) { n.table.fills(0)[15] = 4 },
		"fill counts disagree with Len": func(n *Node) { n.table.n-- },
		"tombstoned entry kept":         func(n *Node) { n.tombs.Put(1002, n.ticks+tombstoneTTL) },
	} {
		n := build()
		corrupt(n)
		if n.CheckInvariants() == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

// referencePrefixTable is the routing structure at the heart of prefix-based DHTs:
// for every pair (i, j) — i the longest-common-prefix length with the
// node's own ID in base-2^b digits, j the first differing digit — it holds
// up to k descriptors of nodes whose IDs realise that pair. Rows are
// allocated lazily, because at any practical network size only the first
// O(log N) rows can ever be populated.
//
// Slot storage (the cap-k descriptor arrays) is drawn from the network's
// DescriptorArena when one is configured, also lazily, and returned whole
// through Release when the owning node is permanently retired.
type referencePrefixTable struct {
	self  id.ID
	b, k  int
	arena *peer.DescriptorArena
	rows  [][][]peer.Descriptor // rows[i][j] is the (i, j) slot, cap k
}

// newReferencePrefixTableIn returns an empty prefix table whose slot storage is
// drawn from the given arena (nil for plain heap allocation).
func newReferencePrefixTableIn(arena *peer.DescriptorArena, self id.ID, b, k int) *referencePrefixTable {
	return &referencePrefixTable{
		self:  self,
		b:     b,
		k:     k,
		arena: arena,
		rows:  make([][][]peer.Descriptor, id.NumDigits(b)),
	}
}

// Slot locates the (row, column) a descriptor ID belongs to relative to the
// table owner. ok is false for the owner's own ID.
func (t *referencePrefixTable) Slot(nodeID id.ID) (row, col int, ok bool) {
	if nodeID == t.self {
		return 0, 0, false
	}
	row = id.CommonPrefixLen(t.self, nodeID, t.b)
	col = nodeID.Digit(row, t.b)
	return row, col, true
}

// Add inserts a descriptor into its slot unless the slot is full or the
// descriptor is already present. It reports whether the table changed —
// this is the paper's UpdatePrefixTable applied to a single descriptor.
func (t *referencePrefixTable) Add(d peer.Descriptor) bool {
	row, col, ok := t.Slot(d.ID)
	if !ok {
		return false
	}
	if t.rows[row] == nil {
		t.rows[row] = make([][]peer.Descriptor, 1<<uint(t.b))
	}
	slot := t.rows[row][col]
	if len(slot) >= t.k {
		return false
	}
	for _, cur := range slot {
		if cur.ID == d.ID {
			return false
		}
	}
	if slot == nil {
		// First entry for this slot: draw its full cap-k block, so the
		// append below (and every later one, len < k) never reallocates.
		slot = t.arena.Get(t.k)
	}
	t.rows[row][col] = append(slot, d)
	return true
}

// AddAll inserts every descriptor of ds (the paper's UpdatePrefixTable).
// It reports how many entries were inserted.
func (t *referencePrefixTable) AddAll(ds []peer.Descriptor) int {
	n := 0
	for _, d := range ds {
		if t.Add(d) {
			n++
		}
	}
	return n
}

// Get returns the slot contents for (row, col). The returned slice is
// internal storage; callers must not modify it.
func (t *referencePrefixTable) Get(row, col int) []peer.Descriptor {
	if row < 0 || row >= len(t.rows) || t.rows[row] == nil {
		return nil
	}
	if col < 0 || col >= len(t.rows[row]) {
		return nil
	}
	return t.rows[row][col]
}

// Len returns the total number of entries in the table.
func (t *referencePrefixTable) Len() int {
	n := 0
	for _, row := range t.rows {
		for _, slot := range row {
			n += len(slot)
		}
	}
	return n
}

// Each calls fn for every entry in the table, row by row. fn returning
// false stops the iteration.
func (t *referencePrefixTable) Each(fn func(row, col int, d peer.Descriptor) bool) {
	for i, row := range t.rows {
		for j, slot := range row {
			for _, d := range slot {
				if !fn(i, j, d) {
					return
				}
			}
		}
	}
}

// Entries returns all table entries as a fresh slice, row by row.
func (t *referencePrefixTable) Entries() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, t.Len())
	for _, row := range t.rows {
		for _, slot := range row {
			out = append(out, slot...)
		}
	}
	return out
}

// appendByID appends all table entries to dst in ascending ID order. Row i
// holds the IDs that share i digits with the owner, column j those whose
// next digit is j; so below the owner's ID come the columns left of its own
// digit, row after row downward (each longer shared prefix sorts higher),
// and above it the columns right of its digit, coming back up the rows.
// Slots keep their stored order — first come, which sweepTarget indexes —
// and are sorted in dst.
func (t *referencePrefixTable) appendByID(dst []peer.Descriptor) []peer.Descriptor {
	for i, row := range t.rows {
		if row != nil {
			dst = referenceAppendSlotsByID(dst, row[:t.self.Digit(i, t.b)])
		}
	}
	for i := len(t.rows) - 1; i >= 0; i-- {
		if row := t.rows[i]; row != nil {
			dst = referenceAppendSlotsByID(dst, row[t.self.Digit(i, t.b)+1:])
		}
	}
	return dst
}

func referenceAppendSlotsByID(dst []peer.Descriptor, slots [][]peer.Descriptor) []peer.Descriptor {
	for _, slot := range slots {
		base := len(dst)
		for _, d := range slot { // ≤ k: cheaper than a memmove call
			dst = append(dst, d)
		}
		sortByID(dst[base:])
	}
	return dst
}

// at returns the i-th entry in Each's order, 0 ≤ i < Len().
func (t *referencePrefixTable) at(i int) peer.Descriptor {
	for _, row := range t.rows {
		for _, slot := range row {
			if i < len(slot) {
				return slot[i]
			}
			i -= len(slot)
		}
	}
	panic("core: prefix table index out of range")
}

// Remove drops the entry with the given ID, if present (e.g. a peer
// detected as dead), compacting the slot in place so the slot keeps its
// arena block.
func (t *referencePrefixTable) Remove(nodeID id.ID) {
	row, col, ok := t.Slot(nodeID)
	if !ok || t.rows[row] == nil {
		return
	}
	slot := t.rows[row][col]
	for i := range slot {
		if slot[i].ID == nodeID {
			copy(slot[i:], slot[i+1:])
			t.rows[row][col] = slot[:len(slot)-1]
			return
		}
	}
}

// Release returns every slot block to the arena and drops the rows. The
// table must not be used again by its current owner: the blocks may be
// handed to another node. Safe to call repeatedly.
func (t *referencePrefixTable) Release() {
	for i, row := range t.rows {
		for j, slot := range row {
			if slot != nil {
				t.arena.Put(slot)
				row[j] = nil
			}
		}
		t.rows[i] = nil
	}
}

func (t *referencePrefixTable) checkInvariants() error {
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

// nearID builds an ID that shares row digits with self and has digit col
// next (reduced to the row count and the digit width), followed by one of
// 16 tails: so few distinct IDs per slot that duplicates, full slots and
// deeper rows (col equal to self's digit) all come up. The high bit of row
// unlocks the deep rows; without it the ID lands in the first three.
func nearID(self id.ID, b int, row, col, tail byte) id.ID {
	r := int(row&0x7f) % id.NumDigits(b)
	if row&0x80 == 0 {
		r %= 3
	}
	shift := uint(64 - (r+1)*b)
	hi := uint64(self) &^ (^uint64(0) >> uint(r*b)) // self's first r digits
	low := uint64(tail%16) * 0x9E3779B97F4A7C15 & (1<<shift - 1)
	return id.ID(hi | uint64(col)&(1<<uint(b)-1)<<shift | low)
}

// samePrefixTable fails t unless tab and ref read the same through every
// accessor — Len, every slot (and just outside the table) through
// AppendSlot and Get, Each (in full and stopped halfway), EachSlot, at, the
// ID order through appendMerged and appendByID, Entries — and both pass
// their invariant checks.
func samePrefixTable(t *testing.T, tab *PrefixTable, ref *referencePrefixTable) {
	t.Helper()
	if tab.Len() != ref.Len() {
		t.Fatalf("Len = %d, reference %d", tab.Len(), ref.Len())
	}
	for row := -1; row <= id.NumDigits(tab.b); row++ {
		for col := -1; col <= 1<<uint(tab.b); col++ {
			if got, want := tab.AppendSlot(nil, row, col), ref.Get(row, col); !slices.Equal(got, want) {
				t.Fatalf("AppendSlot(%d, %d) = %v, reference Get %v", row, col, got, want)
			}
		}
	}
	type entry struct {
		row, col int
		d        peer.Descriptor
	}
	walk := func(each func(func(int, int, peer.Descriptor) bool), stop int) []entry {
		var out []entry
		each(func(row, col int, d peer.Descriptor) bool {
			out = append(out, entry{row, col, d})
			return len(out) != stop
		})
		return out
	}
	for _, stop := range []int{-1, tab.Len() / 2} {
		if got, want := walk(tab.Each, stop), walk(ref.Each, stop); !slices.Equal(got, want) {
			t.Fatalf("Each (stop %d) = %v, reference %v", stop, got, want)
		}
	}
	// EachSlot: the same entries, each slot in ID order, one call a slot.
	var bySlot []entry
	calls := 0
	tab.EachSlot(func(row, col int, slot []peer.Descriptor) bool {
		calls++
		for _, d := range slot {
			bySlot = append(bySlot, entry{row, col, d})
		}
		return true
	})
	want := walk(ref.Each, -1)
	slices.SortStableFunc(want, func(x, y entry) int {
		return cmp.Or(cmp.Compare(x.row, y.row), cmp.Compare(x.col, y.col), cmp.Compare(x.d.ID, y.d.ID))
	})
	if !slices.Equal(bySlot, want) {
		t.Fatalf("EachSlot = %v, reference by slot and ID %v", bySlot, want)
	}
	if calls > 0 {
		stopped := 0
		tab.EachSlot(func(int, int, []peer.Descriptor) bool { stopped++; return false })
		if stopped != 1 {
			t.Fatalf("EachSlot stopped after %d calls, want 1", stopped)
		}
	}
	for i := 0; i < tab.Len(); i++ {
		if got, want := tab.at(i), ref.at(i); got != want {
			t.Fatalf("at(%d) = %v, reference %v", i, got, want)
		}
	}
	if got, want := tab.appendMerged(nil, nil, nil), ref.appendByID(nil); !slices.Equal(got, want) {
		t.Fatalf("appendMerged = %v, reference appendByID %v", got, want)
	}
	if got, want := tab.Entries(), ref.Entries(); !slices.Equal(got, want) {
		t.Fatalf("Entries = %v, reference %v", got, want)
	}
	if err := tab.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ref.checkInvariants(); err != nil {
		t.Fatalf("reference: %v", err)
	}
}

// FuzzPrefixTableMatchesReference drives the ID-ordered table and the
// per-slot reference through one sequence of Add, AddAll, Remove and
// Release, for b in {1, 2, 4, 8} and k in {1, 2, 3, 7}, and compares them
// after every operation; Version must move exactly when an operation
// changed the table. Each operation takes four bytes: the operation (its
// high bits size an AddAll batch), then nearID's row, column and tail;
// bytes past the first 256 operations are ignored.
func FuzzPrefixTableMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{})
	f.Add(uint8(10), uint64(0xA3F0000000000000), []byte{0, 0, 11, 1, 0, 0, 11, 2, 0, 0, 11, 3, 0, 0, 11, 4, 5, 0, 11, 2, 7, 0, 0, 0, 0, 0, 11, 1})
	f.Add(uint8(15), ^uint64(0), []byte{0x2b, 0x81, 0xff, 9, 0x53, 0x8f, 0x01, 7, 5, 0x81, 0xff, 9, 6, 0x8f, 1, 7})
	f.Fuzz(runPrefixTableOps)
}

// maxPrefixTableOps bounds a fuzzed sequence: every operation is followed
// by a full comparison, so long inputs would only slow the fuzzer down.
const maxPrefixTableOps = 256

func runPrefixTableOps(t *testing.T, shape uint8, selfRaw uint64, ops []byte) {
	b := []int{1, 2, 4, 8}[shape&3]
	k := []int{1, 2, 3, 7}[shape>>2&3]
	self := id.ID(selfRaw)
	arena, refArena := peer.NewDescriptorArena(), peer.NewDescriptorArena()
	tab := NewPrefixTableIn(arena, self, b, k)
	ref := newReferencePrefixTableIn(refArena, self, b, k)
	ops = ops[:min(len(ops), 4*maxPrefixTableOps)]
	for ; len(ops) >= 4; ops = ops[4:] {
		op, row, col, tail := ops[0], ops[1], ops[2], ops[3]
		d := peer.Descriptor{ID: nearID(self, b, row, col, tail), Addr: peer.Addr(tail)}
		v := tab.Version()
		var changed bool
		switch op & 7 {
		case 0, 1, 2:
			got, want := tab.Add(d), ref.Add(d)
			if got != want {
				t.Fatalf("Add(%v) = %v, reference %v", d, got, want)
			}
			changed = got
		case 3, 4:
			ds := make([]peer.Descriptor, op>>3%8)
			for i := range ds {
				x := byte(i)
				ds[i] = peer.Descriptor{ID: nearID(self, b, row+x, col^x*37, tail+x), Addr: peer.Addr(x)}
			}
			got, want := tab.AddAll(ds), ref.AddAll(ds)
			if got != want {
				t.Fatalf("AddAll(%v) = %d, reference %d", ds, got, want)
			}
			changed = got > 0
		case 5, 6:
			n := tab.Len()
			tab.Remove(d.ID)
			ref.Remove(d.ID)
			changed = tab.Len() != n
		case 7:
			tab.Release()
			ref.Release()
			changed = true
		}
		if moved := tab.Version() != v; moved != changed {
			t.Fatalf("op %d changed the table: %v, but Version moved: %v", op&7, changed, moved)
		}
		samePrefixTable(t, tab, ref)
	}
	tab.Release()
	ref.Release()
	if n := arena.Outstanding(); n != 0 {
		t.Fatalf("%d row blocks outstanding after Release", n)
	}
	if n := refArena.Outstanding(); n != 0 {
		t.Fatalf("reference: %d slot blocks outstanding after Release", n)
	}
}
