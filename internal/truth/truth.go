// Package truth computes ground-truth routing state — perfect leaf sets and
// perfect prefix-table occupancy for the actual set of participating IDs —
// and measures how far protocol state is from it. These are exactly the
// "proportion of missing leaf set entries" and "proportion of missing
// prefix table entries" metrics plotted in the paper's Figures 3 and 4.
// A missing entry has one definition, liveness-aware (a descriptor of a
// departed node occupies nothing), and MeasureAll and MeasureSampleConf
// both sum it.
//
// The membership's one index is its sorted ring. Leaf sets are ring
// neighbourhoods, the owner of a point is its clockwise successor
// (Successor), and the members that share a node's first d digits form one
// run of the ring, which the digit at depth d splits into consecutive
// sub-runs: perfect prefix-table occupancy is read off binary-searched run
// boundaries, so a full-network measurement costs O(N · rows · 2^b · log N)
// instead of O(N^2).
//
// The oracle is incremental: Update applies a churn delta in
// O(changes·log N + N) — one allocation-free merge of the sorted ring —
// instead of an O(N log N) rebuild, and MeasureAll shards the per-node
// measurement across a worker pool with per-shard scratch buffers, so
// paper-scale (2^18) per-cycle measurement is bounded by cores, not by a
// single thread re-deriving ground truth. A node whose
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
	// row0[j] is the ring position of the first member whose first digit
	// is at least j, for j in [0, 2^b]: row 0's column boundaries, the same
	// for every member until the membership changes.
	row0 []int
	// members is the membership test; the sorted ring above stays the
	// iteration authority (flat.Set iterates in slot order, not ID order).
	members flat.Set
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
	t.indexRow0()
	return t, nil
}

// indexRow0 recomputes row0 from the sorted ring.
func (t *Truth) indexRow0() {
	cols := 1 << t.b
	t.row0 = slices.Grow(t.row0[:0], cols+1)[:cols+1]
	shift := uint(id.Bits - t.b)
	for j := range cols {
		t.row0[j], _ = slices.BinarySearch(t.sorted, id.ID(uint64(j)<<shift))
	}
	t.row0[cols] = len(t.sorted)
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

// Successor returns the first member clockwise from point, point itself
// included: the member that owns point under the successor rule.
func (t *Truth) Successor(point id.ID) id.ID {
	i, _ := slices.BinarySearch(t.sorted, point)
	if i == len(t.sorted) {
		i = 0 // wrap
	}
	return t.sorted[i]
}

// Add inserts a single member. See Update for cost; callers applying a
// whole churn cycle should batch through Update instead.
func (t *Truth) Add(v id.ID) error { return t.Update([]id.ID{v}, nil) }

// Remove deletes a single member. See Update.
func (t *Truth) Remove(v id.ID) error { return t.Update(nil, []id.ID{v}) }

// Update applies a membership delta: every ID of removed leaves, every ID
// of added joins. The sorted ring is rebuilt with one merge pass into a
// retained spare buffer, so a churn cycle costs O(N + changes·log N) with
// no steady-state allocation — versus the O(N log N) sort and set build of
// a fresh New.
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
	// removal would miscount the size the emptiness check reads, a
	// repeated addition (or an added-and-removed ID) would ring the ID
	// twice in the merge.
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
	}
	for _, v := range added {
		t.members.Add(v)
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
	t.indexRow0()
	t.epoch++
	return nil
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

// expectedSlotCountsInto writes, for each (row, col) of self's prefix
// table, the perfect occupancy min(k, available) into the preallocated rows
// (each 2^b wide), where available is the number of member IDs whose slot
// relative to self is (row, col). It returns the number of rows filled:
// rows beyond the point where self is alone in its prefix run are all-zero
// and left untouched.
//
// The members sharing self's first depth digits are the run [lo, hi) of
// the ring. Column j of row depth holds the sub-run whose digit at depth
// is j; sub-runs are consecutive, so each column's count is the distance
// between two boundaries — row 0's from row0, deeper rows' binary-searched
// — and self's own column is the next row's run.
func (t *Truth) expectedSlotCountsInto(self id.ID, rows [][]int) int {
	lo, hi := 0, len(t.sorted)
	used := 0
	for depth := 0; depth < id.NumDigits(t.b) && hi-lo > 1; depth++ {
		shift := uint(id.Bits - (depth+1)*t.b)
		prefix := uint64(self) >> (shift + uint(t.b)) << (shift + uint(t.b))
		own := self.Digit(depth, t.b)
		row := rows[used]
		start, nextLo, nextHi := lo, lo, hi
		for j := range row {
			end := hi
			if depth == 0 {
				end = t.row0[j+1]
			} else if j+1 < len(row) {
				n, _ := slices.BinarySearch(t.sorted[start:hi], id.ID(prefix|uint64(j+1)<<shift))
				end = start + n
			}
			if j == own {
				row[j] = 0
				nextLo, nextHi = start, end
			} else {
				row[j] = min(end-start, t.k)
			}
			start = end
		}
		used++
		lo, hi = nextLo, nextHi
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

// LeafMissing counts the entries of self's perfect leaf set that ls lacks,
// out of the perfect set's size: the leaf half of the measurement, for
// overlays that keep a leaf set but no prefix table. A non-member has no
// perfect leaf set and reads 0, 0.
func (t *Truth) LeafMissing(self id.ID, ls *core.LeafSet) (missing, total int) {
	p := t.indexOf(self)
	if p < 0 {
		return 0, 0
	}
	var scr measureScratch
	return t.leafMissing(ls, p, &scr)
}

// leafMissing counts the perfect leaf-set entries of the member at ring
// position p that ls lacks, and the perfect set's size.
func (t *Truth) leafMissing(ls *core.LeafSet, p int, scr *measureScratch) (missing, total int) {
	scr.leaf = t.appendPerfectLeafSet(scr.leaf[:0], p, scr)
	for _, v := range scr.leaf {
		if !ls.Contains(v) {
			missing++
		}
	}
	return missing, len(scr.leaf)
}

// measureNode measures the member at ring position p using scr's buffers.
// scr.live must be all-zero on entry and is restored to all-zero before
// returning.
func (t *Truth) measureNode(m Member, p int, scr *measureScratch) (nc nodeCounts) {
	nc.leafMissing, nc.leafTotal = t.leafMissing(m.Leaf, p, scr)
	nc.leafDead = t.leafSetDead(m.Leaf)

	rows := t.expectedSlotCountsInto(m.Self, scr.expected)
	maxRow := -1
	m.Table.EachSlot(func(row, col int, slot []peer.Descriptor) bool {
		for _, d := range slot {
			if t.members.Contains(d.ID) {
				scr.live[row][col]++
				maxRow = max(maxRow, row)
			} else {
				nc.prefixDead++
			}
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

// addCounts adds one node's counts to agg.
func addCounts(agg *Aggregate, nc nodeCounts) {
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
}

// MeasureAll measures every member against the oracle, sharding the work
// across a pool of workers (workers < 1 means GOMAXPROCS). The aggregate is
// a sum of per-node integer counts, so the result is bit-identical for
// every worker count, including 1, and whether a member came from the
// cache or was measured afresh. The measured nodes must be quiescent, and
// no other measurement or mutation of the oracle may run concurrently.
func (t *Truth) MeasureAll(members []Member, workers int) Aggregate {
	return t.measureShards(members, nil, nil, workers)
}

// measureShards measures the members at the given indices — every member
// when idx is nil — split into contiguous shards over workers goroutines
// (workers < 1 means GOMAXPROCS; a single shard runs on the caller), one
// scratch per shard, and sums the shards' integer partials. When vals is
// non-nil (len(idx) long) it also receives each measured node's counts, in
// idx order; a member unknown to the oracle leaves its entry zero. It is the
// one fan-out behind MeasureAll and MeasureSampleConf.
func (t *Truth) measureShards(members []Member, idx []int, vals []nodeCounts, workers int) Aggregate {
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
		return t.measureShard(members, idx, vals, 0, n)
	}
	partials := make([]Aggregate, workers)
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
			partials[w] = t.measureShard(members, idx, vals, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var agg Aggregate
	for i := range partials {
		agg.Add(partials[i])
	}
	return agg
}

// measureShard measures positions [lo, hi) of idx — of members when idx is
// nil — with a scratch of its own, drawn only if some member misses the
// cache. It sums into a local and stores the partial once: neighbouring
// partials share cache lines.
func (t *Truth) measureShard(members []Member, idx []int, vals []nodeCounts, lo, hi int) Aggregate {
	var agg Aggregate
	var scr measureScratch
	for i := lo; i < hi; i++ {
		j := i
		if idx != nil {
			j = idx[i]
		}
		nc, ok := t.counts(members[j], &scr)
		if !ok {
			continue
		}
		addCounts(&agg, nc)
		if vals != nil {
			vals[i] = nc
		}
	}
	return agg
}
