package pastry

import (
	"repro/internal/id"
	"repro/internal/peer"
)

// Snapshot is an immutable copy of one router's routing state: the leaf
// lists and the prefix-table slots, copied into one backing array. A
// snapshot is built under the owner's repair lock and then published
// through an atomic pointer, so any number of concurrent readers can route
// through it while the live core structures are being repaired — the
// copy-on-write discipline the serving plane requires (readers never touch
// a LeafSet or PrefixTable that a repair might be mutating).
//
// Snapshots go stale by design: a departed peer stays in every snapshot
// that listed it until the owner republishes. Readers therefore route with
// NextHopAlive, which takes a liveness filter and steps around dead
// entries, so a stale snapshot costs at most a few skipped candidates,
// never a wrong delivery.
//
// The fields a hop reads come first. A hop touches the header, the leaf
// lists (which start the backing array) and at most one prefix slot.
type Snapshot struct {
	self peer.Descriptor
	b    int
	// Prefix slots at a fixed stride: slot (row, col) is
	// entries[(row*cols+col)*k:][:k], its entries in the table's
	// first-come order, padded with peer.None. Only the first `rows` rows
	// are represented; deeper rows are empty.
	rows, cols, k int
	entries       []peer.Descriptor
	// succ and pred are the leaf lists, closest first.
	succ, pred []peer.Descriptor
}

// Snapshot captures the router's current routing state. The result shares
// nothing with the live structures; it costs O(leaf + rows·2^b·k) for the
// populated rows and is meant to be rebuilt only when the state changes
// (join/repair), not per route.
func (r *Router) Snapshot() *Snapshot {
	s := &Snapshot{self: r.self, b: r.b, cols: 1 << uint(r.b), k: r.table.K()}
	// The deepest populated row bounds the slot array, which keeps it
	// O(log N) rows in practice instead of NumDigits.
	r.table.Each(func(row, _ int, _ peer.Descriptor) bool {
		s.rows = max(s.rows, row+1)
		return true
	})
	succ, pred := r.leaf.Successors(), r.leaf.Predecessors()
	ns, np := len(succ), len(pred)
	buf := make([]peer.Descriptor, ns+np+s.rows*s.cols*s.k)
	s.succ = buf[:ns:ns]
	s.pred = buf[ns : ns+np : ns+np]
	s.entries = buf[ns+np:]
	copy(s.succ, succ)
	copy(s.pred, pred)
	for row := 0; row < s.rows; row++ {
		for col := 0; col < s.cols; col++ {
			slot := s.slot(row, col)
			for i := copy(slot, r.table.Get(row, col)); i < len(slot); i++ {
				slot[i] = peer.None
			}
		}
	}
	return s
}

// Self returns the descriptor of the owning node.
func (s *Snapshot) Self() peer.Descriptor { return s.self }

// Leaf returns the snapshot's leaf lists, closest first. The slices are
// the snapshot's backing storage; callers must not modify them.
func (s *Snapshot) Leaf() (succ, pred []peer.Descriptor) { return s.succ, s.pred }

// slot returns the (row, col) slot: k entries, padding (peer.None) after
// the populated ones.
func (s *Snapshot) slot(row, col int) []peer.Descriptor {
	if row < 0 || row >= s.rows {
		return nil
	}
	off := (row*s.cols + col) * s.k
	return s.entries[off : off+s.k]
}

// Reachable is the liveness filter NextHopAlive consults before it
// considers a candidate: from is the address the route originated at (so a
// partition predicate can reject cross-boundary hops) and to is the
// candidate. A nil filter accepts everything.
type Reachable func(from, to peer.Addr) bool

// live reports whether the filter accepts d.
func live(ok Reachable, origin peer.Addr, d peer.Descriptor) bool {
	return ok == nil || ok(origin, d.Addr)
}

// NextHopAlive is Pastry's next-hop rule over the snapshot, considering
// only candidates the filter accepts. In order: a key within the live span
// of the leaf set goes to the ring-closest of the live leaf entries and
// self; otherwise the first live entry, in the table's first-come order, of
// the prefix-table slot that extends the shared prefix by one digit takes
// it (the slot's later entries stand in when earlier ones are dead);
// otherwise any live known node strictly closer to the key that does not
// shorten the shared prefix does. done is true when the key is rooted at
// the snapshot's owner (no live candidate is closer). The hot path
// allocates nothing: all scanning works over the snapshot's backing array.
func (s *Snapshot) NextHopAlive(key id.ID, origin peer.Addr, ok Reachable) (next peer.Descriptor, done bool) {
	if key == s.self.ID {
		return s.self, true
	}
	if best, in := s.leafRoot(key, origin, ok); in {
		if best.ID == s.self.ID {
			return s.self, true
		}
		return best, false
	}
	row := id.CommonPrefixLen(s.self.ID, key, s.b)
	col := key.Digit(row, s.b)
	for _, d := range s.slot(row, col) {
		if d.Nil() {
			break
		}
		if live(ok, origin, d) {
			return d, false
		}
	}
	if d, found := s.rareCase(key, row, origin, ok); found {
		return d, false
	}
	return s.self, true
}

// leafRoot reports whether key lies within the live span of the leaf set
// and, if so, returns the closest live node among the leaf entries and
// self. Dead entries neither define the span nor compete for root.
//
// The live entries and self lie on the arc from the farthest live
// predecessor clockwise through self to the farthest live successor, in
// order of directed distance from self (the leaf lists split the ring at
// self and its antipode, so the arc never wraps onto itself). A key on
// that arc is therefore strictly closer to one of its two neighbours in
// the set than to any other member, so only those two are compared.
func (s *Snapshot) leafRoot(key id.ID, origin peer.Addr, ok Reachable) (peer.Descriptor, bool) {
	lo, np := s.spanEnd(s.pred, origin, ok)
	hi, ns := s.spanEnd(s.succ, origin, ok)
	if np == 0 && ns == 0 {
		return s.self, true // alone in the (live) world
	}
	if id.Succ(lo, key) > id.Succ(lo, hi) {
		return peer.None, false
	}
	if id.Succ(s.self.ID, key) <= id.Succ(s.self.ID, hi) {
		return s.nearer(s.succ[:ns], true, key, origin, ok), true
	}
	return s.nearer(s.pred[:np], false, key, origin, ok), true
}

// spanEnd cuts one leaf list after its farthest live entry: it returns
// that entry's ID and the cut length, or self's ID and 0 when no entry is
// live.
func (s *Snapshot) spanEnd(side []peer.Descriptor, origin peer.Addr, ok Reachable) (id.ID, int) {
	for n := len(side); n > 0; n-- {
		if live(ok, origin, side[n-1]) {
			return side[n-1].ID, n
		}
	}
	return s.self.ID, 0
}

// nearer returns the ring-closer to key of its two neighbours among self
// and the live entries of side — one leaf list (cw: the successors), cut
// so that its last entry was live and is at least as far from self as key.
// The outer neighbour is the first live entry at or beyond key, the inner
// one the last live entry before it, or self. On a tie the inner one wins:
// it is the one a scan of self, succ, pred in order would keep first. The
// filter may change between calls (a peer departs mid-route), so when no
// live entry is left beyond key the inner neighbour is the answer.
func (s *Snapshot) nearer(side []peer.Descriptor, cw bool, key id.ID, origin peer.Addr, ok Reachable) peer.Descriptor {
	at := dirDist(s.self.ID, key, cw)
	i, j := 0, len(side)
	for i < j {
		h := int(uint(i+j) >> 1)
		if dirDist(s.self.ID, side[h].ID, cw) < at {
			i = h + 1
		} else {
			j = h
		}
	}
	outer := i
	for outer < len(side) && !live(ok, origin, side[outer]) {
		outer++
	}
	inner := s.self
	for i--; i >= 0; i-- {
		if live(ok, origin, side[i]) {
			inner = side[i]
			break
		}
	}
	if outer < len(side) && id.RingDistance(key, side[outer].ID) < id.RingDistance(key, inner.ID) {
		return side[outer]
	}
	return inner
}

// dirDist is the directed distance from self to x: clockwise when cw,
// counter-clockwise otherwise.
func dirDist(self, x id.ID, cw bool) uint64 {
	if cw {
		return id.Succ(self, x)
	}
	return id.Pred(self, x)
}

// rareCase scans everything the snapshot knows for a live peer strictly
// closer to the key whose shared prefix with the key is at least row
// digits.
func (s *Snapshot) rareCase(key id.ID, row int, origin peer.Addr, ok Reachable) (peer.Descriptor, bool) {
	best := peer.None
	bestDist := id.RingDistance(key, s.self.ID)
	consider := func(d peer.Descriptor) {
		if d.Nil() || !live(ok, origin, d) {
			return
		}
		if id.CommonPrefixLen(d.ID, key, s.b) < row {
			return
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, d := range s.succ {
		consider(d)
	}
	for _, d := range s.pred {
		consider(d)
	}
	for _, d := range s.entries {
		consider(d)
	}
	return best, !best.Nil()
}

// Repair applies a departure to the router's live structures: the departed
// peer is scrubbed and the candidates (typically the departed node's own
// leaf entries — the peers that inherit its neighborhood) are offered to
// the leaf set and prefix table as replacements. Callers republish a fresh
// Snapshot afterwards. This is the incremental counterpart of rebuilding a
// mesh: one departure costs O(leaf set) work at the affected routers only.
func (r *Router) Repair(departed id.ID, candidates []peer.Descriptor) {
	r.Forget(departed)
	// Never re-adopt the departed peer if the caller's candidate list
	// still carries it (the usual source is the departed node's own
	// neighborhood, which of course does not list the node itself, but a
	// defensive caller may pass broader sets).
	clean := candidates
	for _, d := range candidates {
		if d.ID == departed {
			clean = make([]peer.Descriptor, 0, len(candidates)-1)
			for _, c := range candidates {
				if c.ID != departed {
					clean = append(clean, c)
				}
			}
			break
		}
	}
	r.leaf.Update(clean)
	r.table.AddAll(clean)
}

// Adopt offers candidates to the router's structures without a departure —
// the arrival-side counterpart of Repair, used when a peer (re)joins the
// overlay. Callers republish a fresh Snapshot afterwards.
func (r *Router) Adopt(candidates []peer.Descriptor) {
	r.leaf.Update(candidates)
	r.table.AddAll(candidates)
}
