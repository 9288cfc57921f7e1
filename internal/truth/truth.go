// Package truth computes ground-truth routing state — perfect leaf sets and
// perfect prefix-table occupancy for the actual set of participating IDs —
// and measures how far protocol state is from it. These are exactly the
// "proportion of missing leaf set entries" and "proportion of missing
// prefix table entries" metrics plotted in the paper's Figures 3 and 4.
// A missing entry has one definition, liveness-aware (a descriptor of a
// departed node occupies nothing), and MeasureAll and MeasureSampleConf
// both sum it.
//
// Perfect prefix-table occupancy is derived from a lazily expanded
// radix-2^b trie with subtree counts, so a full-network measurement costs
// O(N · rows · 2^b) instead of O(N^2).
//
// The oracle is incremental: Update applies a churn delta in
// O(changes·log N + N) — one allocation-free merge of the sorted ring plus
// per-ID trie surgery — instead of an O(N log N) rebuild, and MeasureAll
// shards the per-node measurement across a worker pool with per-shard
// scratch buffers, so paper-scale (2^18) per-cycle measurement is bounded
// by cores, not by a single thread re-deriving ground truth. A node whose
// leaf set, prefix table and oracle are all unchanged since its last
// measurement is not measured again: its counts come from a per-node
// cache (see counts).
package truth

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/peer"
)

// Truth is a ground-truth oracle for a membership set. The membership can
// be mutated with Add, Remove and Update. Measurement methods (MeasureAll,
// MeasureSampleConf) write the oracle's measurement cache, so they must not
// run concurrently with each other or with mutations; each spreads its own
// work across workers.
type Truth struct {
	b, k, c int
	sorted  []id.ID
	spare   []id.ID // second buffer, swapped with sorted by Update merges
	// members is the membership test; the sorted ring above stays the
	// iteration authority (flat.Set iterates in slot order, not ID order).
	members flat.Set
	root    *trieNode
	// epoch advances with every membership change; a cached measurement
	// from an earlier epoch is stale.
	epoch uint64
	// cache[p] is the last measurement of the member at ring position p;
	// the first measurement after the ring changes size resizes it.
	cache []cachedCounts
}

// New builds the oracle for the given membership and protocol parameters
// (b bits per digit, k entries per slot, leaf set size c).
func New(ids []id.ID, b, k, c int) (*Truth, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("truth: empty membership")
	}
	t := &Truth{
		b:      b,
		k:      k,
		c:      c,
		sorted: make([]id.ID, len(ids)),
		root:   &trieNode{},
	}
	copy(t.sorted, ids)
	slices.Sort(t.sorted)
	for i := 1; i < len(t.sorted); i++ {
		if t.sorted[i] == t.sorted[i-1] {
			return nil, fmt.Errorf("truth: duplicate id %s", t.sorted[i])
		}
	}
	t.members.Reserve(len(t.sorted))
	for _, v := range t.sorted {
		t.members.Add(v)
	}
	for _, v := range ids {
		t.root.insert(v, 0, b)
	}
	return t, nil
}

// N returns the membership size.
func (t *Truth) N() int { return len(t.sorted) }

// indexOf returns v's position in the sorted ring, or -1 for a non-member.
func (t *Truth) indexOf(v id.ID) int {
	if i, ok := slices.BinarySearch(t.sorted, v); ok {
		return i
	}
	return -1
}

// Add inserts a single member. See Update for cost; callers applying a
// whole churn cycle should batch through Update instead.
func (t *Truth) Add(v id.ID) error { return t.Update([]id.ID{v}, nil) }

// Remove deletes a single member. See Update.
func (t *Truth) Remove(v id.ID) error { return t.Update(nil, []id.ID{v}) }

// Update applies a membership delta: every ID of removed leaves, every ID
// of added joins. The sorted ring is rebuilt with one merge pass into a
// retained spare buffer and the prefix trie is patched per ID, so a churn
// cycle costs O(N + changes·log N) with no steady-state allocation —
// versus the O(N log N) sort, map build and trie build of a fresh New.
//
// An ID may not appear in both lists, removed IDs must be members, added
// IDs must not be; violations leave the oracle unchanged and return an
// error. The membership must stay non-empty.
func (t *Truth) Update(added, removed []id.ID) error {
	if len(added) == 0 && len(removed) == 0 {
		return nil
	}
	if len(t.sorted)+len(added)-len(removed) < 1 {
		return fmt.Errorf("truth: update would empty the membership")
	}
	// Validate both lists in full before mutating anything. Every ID
	// must appear at most once across the whole delta: a repeated
	// removal would decrement the trie counts twice, a repeated addition
	// (or an added-and-removed ID) would ring the ID twice in the merge.
	// Small batches are checked by scanning; large ones (mass joins)
	// through a throwaway set, keeping validation O(changes) rather
	// than O(changes²).
	var addedSet *flat.Set
	if len(added)+len(removed) > 64 {
		addedSet = flat.NewSet(len(added) + len(removed))
	}
	for i, v := range removed {
		if !t.members.Contains(v) {
			return fmt.Errorf("truth: remove of non-member %s", v)
		}
		if addedSet != nil {
			if !addedSet.Add(v) {
				return fmt.Errorf("truth: duplicate id %s in update batch", v)
			}
			continue
		}
		for j := 0; j < i; j++ {
			if removed[j] == v {
				return fmt.Errorf("truth: duplicate id %s in update batch", v)
			}
		}
	}
	for i, v := range added {
		if t.members.Contains(v) {
			return fmt.Errorf("truth: duplicate id %s", v)
		}
		if addedSet != nil {
			if !addedSet.Add(v) {
				return fmt.Errorf("truth: duplicate id %s in update batch", v)
			}
			continue
		}
		for j := 0; j < i; j++ {
			if added[j] == v {
				return fmt.Errorf("truth: duplicate id %s in update batch", v)
			}
		}
		for _, r := range removed {
			if r == v {
				return fmt.Errorf("truth: duplicate id %s in update batch", v)
			}
		}
	}
	for _, v := range removed {
		t.members.Remove(v)
		t.root.remove(v, 0, t.b)
	}
	for _, v := range added {
		t.members.Add(v)
		t.root.insert(v, 0, t.b)
	}
	// Merge the surviving ring with the sorted additions into the spare
	// buffer, then swap the buffers.
	addSorted := append(t.spare[:0], added...)
	slices.Sort(addSorted)
	merged := addSorted[len(addSorted):]
	ai := 0
	for _, v := range t.sorted {
		if !t.members.Contains(v) {
			continue // removed this update
		}
		for ai < len(addSorted) && addSorted[ai] < v {
			merged = append(merged, addSorted[ai])
			ai++
		}
		merged = append(merged, v)
	}
	merged = append(merged, addSorted[ai:]...)
	t.sorted, t.spare = merged, t.sorted
	t.epoch++
	return nil
}

// trieNode is a lazily expanded radix-2^b trie node with subtree counts.
// While an unexpanded node holds count == 1 it remembers its sole ID;
// expanded nodes whose count drops through removals are not re-collapsed
// (the subtree counts alone drive every query, so collapse would only
// save memory already paid for).
type trieNode struct {
	count    int
	children []*trieNode
	sole     id.ID
}

func (n *trieNode) insert(v id.ID, depth, b int) {
	n.count++
	if n.children == nil {
		if n.count == 1 {
			n.sole = v
			return
		}
		if depth == id.NumDigits(b) {
			return // full depth; unique IDs never reach here twice
		}
		n.children = make([]*trieNode, 1<<b)
		// Push the previously sole occupant one level down.
		d := n.sole.Digit(depth, b)
		n.children[d] = &trieNode{}
		n.children[d].insert(n.sole, depth+1, b)
	}
	if depth == id.NumDigits(b) {
		return
	}
	d := v.Digit(depth, b)
	if n.children[d] == nil {
		n.children[d] = &trieNode{}
	}
	n.children[d].insert(v, depth+1, b)
}

// remove decrements the subtree counts along v's path. Emptied nodes stay
// allocated; count == 0 makes them invisible to every query.
func (n *trieNode) remove(v id.ID, depth, b int) {
	n.count--
	if n.children == nil || depth == id.NumDigits(b) {
		return
	}
	if c := n.children[v.Digit(depth, b)]; c != nil {
		c.remove(v, depth+1, b)
	}
}

// childCount returns the number of IDs below child digit d, resolving
// unexpanded single-occupant nodes.
func (n *trieNode) childCount(d, depth, b int) int {
	if n.children == nil {
		// Unexpanded: n.count <= 1. The sole occupant counts if its
		// digit matches.
		if n.count == 1 && n.sole.Digit(depth, b) == d {
			return 1
		}
		return 0
	}
	if n.children[d] == nil {
		return 0
	}
	return n.children[d].count
}

// appendPerfectLeafSet appends to dst the IDs a perfect leaf set for the
// member at sorted position p must contain, applying the paper's selection
// rule (c/2 closest successors and predecessors, topped up from the other
// direction) to the full membership. scr's buffers hold the candidate
// lists, so the derivation allocates nothing once they have grown.
func (t *Truth) appendPerfectLeafSet(dst []id.ID, p int, scr *measureScratch) []id.ID {
	self := t.sorted[p]
	n := len(t.sorted)
	others := n - 1
	if others <= 0 {
		return dst
	}
	// Candidates: up to c ring-neighbours in each direction. The final
	// set is always a subset of these. Classify by ring half exactly as
	// the protocol does: clockwise neighbours beyond the antipode are
	// really predecessors and vice versa; at practical sizes this never
	// triggers, but small networks need it for exactness.
	limit := min(t.c, others)
	realSucc := scr.succ[:0]
	realPred := scr.pred[:0]
	classify := func(v id.ID) {
		if id.IsSuccessor(self, v) {
			realSucc = append(realSucc, v)
		} else {
			realPred = append(realPred, v)
		}
	}
	if 2*limit <= others {
		// The two candidate windows cannot overlap: no dedup needed.
		for i := 1; i <= limit; i++ {
			classify(t.sorted[(p+i)%n])
			classify(t.sorted[(p-i+n)%n])
		}
	} else {
		// Small network: the windows wrap into each other; dedup in the
		// same order the candidates are considered (successor window
		// first, then predecessor window).
		if scr.seen == nil {
			scr.seen = make(map[id.ID]struct{}, 2*limit)
		}
		clear(scr.seen)
		for i := 1; i <= limit; i++ {
			v := t.sorted[(p+i)%n]
			if _, dup := scr.seen[v]; !dup {
				scr.seen[v] = struct{}{}
				classify(v)
			}
		}
		for i := 1; i <= limit; i++ {
			v := t.sorted[(p-i+n)%n]
			if _, dup := scr.seen[v]; !dup {
				scr.seen[v] = struct{}{}
				classify(v)
			}
		}
	}
	// slices.SortFunc, not sort.Slice: the reflection swapper of the
	// latter allocates per call, which at one call per node per cycle
	// dominates the measurement-plane allocation profile. The keys are
	// distinct (distinct IDs, fixed self), so the order is total and the
	// result algorithm-independent.
	slices.SortFunc(realSucc, func(a, b id.ID) int {
		return cmp.Compare(id.Succ(self, a), id.Succ(self, b))
	})
	slices.SortFunc(realPred, func(a, b id.ID) int {
		return cmp.Compare(id.Pred(self, a), id.Pred(self, b))
	})
	scr.succ, scr.pred = realSucc, realPred
	half := t.c / 2
	nSucc := min(len(realSucc), half)
	nPred := min(len(realPred), half)
	if spare := t.c - nSucc - nPred; spare > 0 {
		nSucc = min(len(realSucc), nSucc+spare)
	}
	if spare := t.c - nSucc - nPred; spare > 0 {
		nPred = min(len(realPred), nPred+spare)
	}
	dst = append(dst, realSucc[:nSucc]...)
	dst = append(dst, realPred[:nPred]...)
	return dst
}

// expectedRow fills row with the perfect per-column occupancy of the prefix
// table row at the given depth, reading the trie node covering self's
// depth-long prefix: min(k, available) per column, zero in self's own.
func (t *Truth) expectedRow(node *trieNode, self id.ID, depth int, row []int) {
	own := self.Digit(depth, t.b)
	for j := range row {
		if j == own {
			row[j] = 0
			continue
		}
		avail := node.childCount(j, depth, t.b)
		if avail > t.k {
			avail = t.k
		}
		row[j] = avail
	}
}

// expectedSlotCountsInto writes, for each (row, col) of self's prefix
// table, the perfect occupancy min(k, available) into the preallocated rows
// (each 2^b wide), where available is the number of member IDs whose slot
// relative to self is (row, col). It returns the number of rows filled:
// rows beyond the point where self is alone in its prefix subtree are
// all-zero and left untouched.
func (t *Truth) expectedSlotCountsInto(self id.ID, rows [][]int) int {
	node := t.root
	used := 0
	for depth := 0; depth < id.NumDigits(t.b); depth++ {
		if node == nil || node.count <= 1 {
			break
		}
		t.expectedRow(node, self, depth, rows[used])
		used++
		if node.children == nil {
			break
		}
		node = node.children[self.Digit(depth, t.b)]
	}
	return used
}

// leafSetDead counts entries of ls that are not current members.
func (t *Truth) leafSetDead(ls *core.LeafSet) int {
	dead := 0
	for _, d := range ls.Successors() {
		if !t.members.Contains(d.ID) {
			dead++
		}
	}
	for _, d := range ls.Predecessors() {
		if !t.members.Contains(d.ID) {
			dead++
		}
	}
	return dead
}

// Contains reports whether nodeID is a current member.
func (t *Truth) Contains(nodeID id.ID) bool { return t.members.Contains(nodeID) }

// Member pairs a node's identity with the structures MeasureAll inspects.
type Member struct {
	Self  id.ID
	Leaf  *core.LeafSet
	Table *core.PrefixTable
	// Fresh marks a node that joined recently (the harness decides the
	// cutoff — typically within the last two cycles). MeasureAll ignores
	// it; the sampled estimator stratifies on it, because under churn the
	// fresh minority carries missing-entry counts orders of magnitude
	// above the established majority and a simple random sample's
	// interval undercovers badly on that mixture (see sample.go).
	Fresh bool
}

// Aggregate is the network-wide sum of per-node measurements: raw integer
// counts, so the result is exactly independent of how the measurement was
// sharded (integer addition is associative and commutative).
type Aggregate struct {
	// LeafMissing/LeafTotal sum missing and perfect leaf entries.
	LeafMissing, LeafTotal int
	// PrefixMissing/PrefixTotal sum missing and perfect prefix entries
	// (liveness-aware: only current members occupy slots).
	PrefixMissing, PrefixTotal int
	// LeafPerfect/PrefixPerfect count nodes whose structure is perfect.
	LeafPerfect, PrefixPerfect int
	// LeafDead/PrefixDead count structure entries naming departed nodes.
	LeafDead, PrefixDead int
}

// Add accumulates another aggregate's integer sums. Because an Aggregate
// is nothing but raw counts, adding per-shard partials — whether the
// shards are worker goroutines or whole OS processes measuring disjoint
// member subsets against the same truth — reproduces the whole-network
// measurement exactly.
func (a *Aggregate) Add(o Aggregate) {
	a.LeafMissing += o.LeafMissing
	a.LeafTotal += o.LeafTotal
	a.PrefixMissing += o.PrefixMissing
	a.PrefixTotal += o.PrefixTotal
	a.LeafPerfect += o.LeafPerfect
	a.PrefixPerfect += o.PrefixPerfect
	a.LeafDead += o.LeafDead
	a.PrefixDead += o.PrefixDead
}

// measureScratch is the per-shard working memory of measureShards: candidate
// and result buffers for perfect leaf sets, and two rows×cols tables for
// expected and observed slot occupancy. One scratch per worker keeps the
// shards false-sharing-free and the whole measurement allocation-free
// after the first node. The zero value holds no buffers; init draws them.
type measureScratch struct {
	leaf       []id.ID
	succ, pred []id.ID
	seen       map[id.ID]struct{} // only used when candidate windows overlap
	expected   [][]int
	live       [][]int
}

func (scr *measureScratch) init(t *Truth) {
	rows, cols := id.NumDigits(t.b), 1<<t.b
	*scr = measureScratch{
		leaf:     make([]id.ID, 0, t.c),
		succ:     make([]id.ID, 0, t.c),
		pred:     make([]id.ID, 0, t.c),
		expected: make([][]int, rows),
		live:     make([][]int, rows),
	}
	for i := 0; i < rows; i++ {
		scr.expected[i] = make([]int, cols)
		scr.live[i] = make([]int, cols)
	}
}

// nodeCounts is the raw per-node measurement — the one definition of a
// missing entry that every exact, sampled, sharded or multi-process
// measurement sums.
type nodeCounts struct {
	leafMissing, leafTotal, leafDead       int
	prefixMissing, prefixTotal, prefixDead int
}

// measureKey is what a member's nodeCounts depend on besides its ring
// position: its structures, their contents and the oracle's membership.
type measureKey struct {
	leaf              *core.LeafSet
	table             *core.PrefixTable
	leafVer, tableVer uint64
	epoch             uint64
}

// cachedCounts is one member's last measurement and the key it was taken
// under.
type cachedCounts struct {
	key measureKey
	nc  nodeCounts
}

// counts returns m's nodeCounts. A member whose structures and versions
// and the oracle's epoch all match its ring position's cache entry is
// summed from the cache; any other goes through measureNode (scr draws its
// buffers on first need) and refreshes the entry. Distinct members own
// distinct entries, so shards never write the same one. ok is false for a
// non-member (harness bug), which contributes nothing.
func (t *Truth) counts(m Member, scr *measureScratch) (nodeCounts, bool) {
	p := t.indexOf(m.Self)
	if p < 0 {
		return nodeCounts{}, false
	}
	key := measureKey{m.Leaf, m.Table, m.Leaf.Version(), m.Table.Version(), t.epoch}
	c := &t.cache[p]
	if c.key == key {
		return c.nc, true
	}
	if scr.expected == nil {
		scr.init(t)
	}
	*c = cachedCounts{key, t.measureNode(m, p, scr)}
	return c.nc, true
}

// measureNode measures the member at ring position p using scr's buffers.
// scr.live must be all-zero on entry and is restored to all-zero before
// returning.
func (t *Truth) measureNode(m Member, p int, scr *measureScratch) (nc nodeCounts) {
	scr.leaf = t.appendPerfectLeafSet(scr.leaf[:0], p, scr)
	for _, v := range scr.leaf {
		if !m.Leaf.Contains(v) {
			nc.leafMissing++
		}
	}
	nc.leafTotal = len(scr.leaf)
	nc.leafDead = t.leafSetDead(m.Leaf)

	rows := t.expectedSlotCountsInto(m.Self, scr.expected)
	maxRow := -1
	m.Table.Each(func(row, col int, d peer.Descriptor) bool {
		if t.members.Contains(d.ID) {
			scr.live[row][col]++
			if row > maxRow {
				maxRow = row
			}
		} else {
			nc.prefixDead++
		}
		return true
	})
	for i := 0; i < rows; i++ {
		for j, want := range scr.expected[i] {
			if want == 0 {
				continue
			}
			nc.prefixTotal += want
			if have := scr.live[i][j]; have < want {
				nc.prefixMissing += want - have
			}
		}
	}
	for i := 0; i <= maxRow; i++ {
		clear(scr.live[i])
	}
	return nc
}

// measureSums is the integer sum of a set of nodeCounts: the Aggregate,
// plus the square and cross sums the sampled estimator's variance needs
// (MeasureAll drops them). Everything stays integral until the final
// estimate, so the result is bit-identical for every worker count.
type measureSums struct {
	agg                          Aggregate
	leafMM, leafMT, leafTT       int64 // Σm², Σm·t, Σt² (leaf)
	prefixMM, prefixMT, prefixTT int64 // Σm², Σm·t, Σt² (prefix)
}

func (s *measureSums) add(o measureSums) {
	s.agg.Add(o.agg)
	s.leafMM += o.leafMM
	s.leafMT += o.leafMT
	s.leafTT += o.leafTT
	s.prefixMM += o.prefixMM
	s.prefixMT += o.prefixMT
	s.prefixTT += o.prefixTT
}

// measure adds one member's counts to s.
func (s *measureSums) measure(t *Truth, m Member, scr *measureScratch) {
	nc, ok := t.counts(m, scr)
	if !ok {
		return
	}
	agg := &s.agg
	agg.LeafMissing += nc.leafMissing
	agg.LeafTotal += nc.leafTotal
	if nc.leafMissing == 0 {
		agg.LeafPerfect++
	}
	agg.LeafDead += nc.leafDead
	agg.PrefixMissing += nc.prefixMissing
	agg.PrefixTotal += nc.prefixTotal
	if nc.prefixMissing == 0 {
		agg.PrefixPerfect++
	}
	agg.PrefixDead += nc.prefixDead
	lm, lt := int64(nc.leafMissing), int64(nc.leafTotal)
	pm, pt := int64(nc.prefixMissing), int64(nc.prefixTotal)
	s.leafMM += lm * lm
	s.leafMT += lm * lt
	s.leafTT += lt * lt
	s.prefixMM += pm * pm
	s.prefixMT += pm * pt
	s.prefixTT += pt * pt
}

// MeasureAll measures every member against the oracle, sharding the work
// across a pool of workers (workers < 1 means GOMAXPROCS). The aggregate is
// a sum of per-node integer counts, so the result is bit-identical for
// every worker count, including 1, and whether a member came from the
// cache or was measured afresh. The measured nodes must be quiescent, and
// no other measurement or mutation of the oracle may run concurrently.
func (t *Truth) MeasureAll(members []Member, workers int) Aggregate {
	return t.measureShards(members, nil, workers).agg
}

// measureShards measures the members at the given indices — every member
// when idx is nil — split into contiguous shards over workers goroutines
// (workers < 1 means GOMAXPROCS; a single shard runs on the caller), one
// scratch per shard, and sums the shards' integer partials. It is the one
// fan-out behind MeasureAll and MeasureSampleConf.
func (t *Truth) measureShards(members []Member, idx []int, workers int) measureSums {
	n := len(members)
	if idx != nil {
		n = len(idx)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if len(t.cache) != len(t.sorted) {
		// Only Update changes the ring's size, and it advances the epoch:
		// whatever the entries hold is stale.
		t.cache = slices.Grow(t.cache[:0], len(t.sorted))[:len(t.sorted)]
	}
	if workers <= 1 {
		return t.measureShard(members, idx, 0, n)
	}
	partials := make([]measureSums, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partials[w] = t.measureShard(members, idx, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var sums measureSums
	for i := range partials {
		sums.add(partials[i])
	}
	return sums
}

// measureShard measures positions [lo, hi) of idx — of members when idx is
// nil — with a scratch of its own, drawn only if some member misses the
// cache. It sums into a local and stores the partial once: neighbouring
// partials share cache lines.
func (t *Truth) measureShard(members []Member, idx []int, lo, hi int) measureSums {
	var sums measureSums
	var scr measureScratch
	for i := lo; i < hi; i++ {
		if idx != nil {
			sums.measure(t, members[idx[i]], &scr)
		} else {
			sums.measure(t, members[i], &scr)
		}
	}
	return sums
}
