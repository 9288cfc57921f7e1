package pastry

import (
	"repro/internal/id"
	"repro/internal/peer"
)

// Snapshot is an immutable copy of one router's routing state: the leaf
// lists and the populated prefix-table slots, flattened into two backing
// arrays. A snapshot is built under the owner's repair lock and then
// published through an atomic pointer, so any number of concurrent readers
// can route through it while the live core structures are being repaired —
// the copy-on-write discipline the serving plane requires (readers never
// touch a LeafSet or PrefixTable that a repair might be mutating).
//
// Snapshots go stale by design: a departed peer stays in every snapshot
// that listed it until the owner republishes. Readers therefore route with
// NextHopAlive, which takes a liveness filter and steps around dead
// entries, so a stale snapshot costs at most a few skipped candidates,
// never a wrong delivery.
type Snapshot struct {
	self peer.Descriptor
	b    int
	prox Proximity // nil: take the first reachable slot entry
	// succ and pred are the leaf lists, closest first.
	succ, pred []peer.Descriptor
	// Populated prefix slots, flattened: slot (row, col) holds
	// entries[slotOff[row*cols+col] : slotOff[row*cols+col+1]]. Only the
	// first `rows` rows are represented; deeper rows are empty.
	rows, cols int
	slotOff    []int32
	entries    []peer.Descriptor
}

// Snapshot captures the router's current routing state. The result shares
// nothing with the live structures; it costs O(leaf + table entries) and is
// meant to be rebuilt only when the state changes (join/repair), not per
// route.
func (r *Router) Snapshot() *Snapshot {
	s := &Snapshot{self: r.self, b: r.b, prox: r.prox}
	s.succ = append(s.succ, r.leaf.Successors()...)
	s.pred = append(s.pred, r.leaf.Predecessors()...)
	// Find the deepest populated row so the offset array stays O(log N)
	// in practice instead of O(NumDigits * 2^b).
	maxRow := -1
	r.table.Each(func(row, _ int, _ peer.Descriptor) bool {
		if row > maxRow {
			maxRow = row
		}
		return true
	})
	s.rows = maxRow + 1
	s.cols = 1 << uint(r.b)
	if s.rows == 0 {
		return s
	}
	s.slotOff = make([]int32, s.rows*s.cols+1)
	s.entries = make([]peer.Descriptor, 0, r.table.Len())
	// Each visits slots in (row, col) order, so one pass fills the
	// flattened layout; a second pass over slotOff turns counts into
	// offsets.
	cur := 0
	r.table.Each(func(row, col int, d peer.Descriptor) bool {
		idx := row*s.cols + col
		for cur < idx {
			cur++
			s.slotOff[cur] = int32(len(s.entries))
		}
		s.entries = append(s.entries, d)
		s.slotOff[idx+1] = int32(len(s.entries))
		return true
	})
	for i := cur + 1; i < len(s.slotOff); i++ {
		s.slotOff[i] = int32(len(s.entries))
	}
	return s
}

// Self returns the descriptor of the owning node.
func (s *Snapshot) Self() peer.Descriptor { return s.self }

// Leaf returns the snapshot's leaf lists, closest first. The slices are
// the snapshot's backing storage; callers must not modify them.
func (s *Snapshot) Leaf() (succ, pred []peer.Descriptor) { return s.succ, s.pred }

// slot returns the (row, col) slot contents.
func (s *Snapshot) slot(row, col int) []peer.Descriptor {
	if row < 0 || row >= s.rows {
		return nil
	}
	idx := row*s.cols + col
	return s.entries[s.slotOff[idx]:s.slotOff[idx+1]]
}

// Reachable is the liveness filter NextHopAlive consults before it
// considers a candidate: from is the address the route originated at (so a
// partition predicate can reject cross-boundary hops) and to is the
// candidate. A nil filter accepts everything.
type Reachable func(from, to peer.Addr) bool

// NextHopAlive is Pastry's next-hop rule over the snapshot, considering
// only candidates the filter accepts. In order: a key within the live span
// of the leaf set goes to the ring-closest of the live leaf entries and
// self; otherwise the live entries of the prefix-table slot that extends
// the shared prefix by one digit take it (the proximally closest one when
// the router had a Proximity metric, else the first); otherwise any live
// known node strictly closer to the key that does not shorten the shared
// prefix does. done is true when the key is rooted at the snapshot's owner
// (no live candidate is closer). The hot path allocates nothing: all
// scanning works over the snapshot's backing arrays.
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
	best, found := peer.Descriptor{}, false
	for _, d := range s.slot(row, col) {
		if ok != nil && !ok(origin, d.Addr) {
			continue
		}
		if s.prox == nil {
			return d, false
		}
		if !found || s.prox(s.self.Addr, d.Addr) < s.prox(s.self.Addr, best.Addr) {
			best, found = d, true
		}
	}
	if found {
		return best, false
	}
	if d, found := s.rareCase(key, row, origin, ok); found {
		return d, false
	}
	return s.self, true
}

// leafRoot reports whether key lies within the live span of the leaf set
// and, if so, returns the closest live node among the leaf entries and
// self. Dead entries neither define the span nor compete for root.
func (s *Snapshot) leafRoot(key id.ID, origin peer.Addr, ok Reachable) (peer.Descriptor, bool) {
	// Farthest live entry in each direction bounds the span.
	lo, hi := s.self.ID, s.self.ID
	anyLive := false
	for i := len(s.pred) - 1; i >= 0; i-- {
		if ok == nil || ok(origin, s.pred[i].Addr) {
			lo = s.pred[i].ID
			anyLive = true
			break
		}
	}
	for i := len(s.succ) - 1; i >= 0; i-- {
		if ok == nil || ok(origin, s.succ[i].Addr) {
			hi = s.succ[i].ID
			anyLive = true
			break
		}
	}
	if !anyLive {
		return s.self, true // alone in the (live) world
	}
	span := id.Succ(lo, hi)
	off := id.Succ(lo, key)
	if off > span {
		return peer.Descriptor{Addr: peer.NoAddr}, false
	}
	best := s.self
	bestDist := id.RingDistance(key, s.self.ID)
	for _, d := range s.succ {
		if ok != nil && !ok(origin, d.Addr) {
			continue
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, d := range s.pred {
		if ok != nil && !ok(origin, d.Addr) {
			continue
		}
		if dist := id.RingDistance(key, d.ID); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best, true
}

// rareCase scans everything the snapshot knows for a live peer strictly
// closer to the key whose shared prefix with the key is at least row
// digits.
func (s *Snapshot) rareCase(key id.ID, row int, origin peer.Addr, ok Reachable) (peer.Descriptor, bool) {
	best := peer.Descriptor{Addr: peer.NoAddr}
	bestDist := id.RingDistance(key, s.self.ID)
	consider := func(d peer.Descriptor) {
		if ok != nil && !ok(origin, d.Addr) {
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
