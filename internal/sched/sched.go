// Package sched implements a two-level bucketed calendar queue — a timing
// wheel with an overflow level — for time-ordered scheduling in O(1)
// amortised time per operation.
//
// Both engines in this repository are tick-dominated: nearly every hot-path
// operation is "schedule an event a bounded distance in the future" (a
// gossip tick one period ahead, a message one latency ahead). A binary heap
// pays O(log n) sifts per event for a workload that never needs the full
// generality of a priority queue; a calendar queue exploits the bounded
// horizon to make both enqueue and dequeue O(1) amortised.
//
// # Structure
//
// Level 0 is a ring of B buckets, each of width 2^shift time units, covering
// the half-open window [front·2^shift, (front+B)·2^shift) ahead of the
// cursor. An event at time t lands in bucket (t>>shift) mod B. Events beyond
// the window go to the overflow level — an unsorted slice — and are re-binned
// into level 0 when the cursor approaches them. When every pending event
// lives in overflow the cursor jumps straight to the earliest overflow
// bucket, and if the overflow span is much wider than the window the bucket
// width doubles until the span fits a small number of wraps, so an adversely
// spread workload degrades gracefully instead of re-scanning the overflow
// once per wrap.
//
// # Memory
//
// Backing arrays follow the buckets that are occupied, not the ring. When
// the cursor leaves an exhausted bucket its array goes onto a spare stack
// and the slot is left empty; a bucket that receives its first entry takes
// an array from that stack. The number of arrays is therefore bounded by
// the largest number of buckets occupied at once, plus one, rather than by
// the ring size: simnet's 256-slot wheel holds about a dozen (ticks one
// period ahead, messages one instant ahead), each sized to the busiest
// instant it has carried.
//
// # Determinism
//
// Every Push is stamped with a strictly increasing insertion sequence
// number, and Pop yields entries in strict (time, seq) order: ties on the
// deadline always resolve in insertion order, exactly like a stable binary
// heap over (time, seq). The pop order is therefore a pure function of the
// push sequence — independent of bucket geometry, widening, or re-binning —
// which is what lets the deterministic simulator replace its heap without
// perturbing a single golden trace.
//
// The zero Queue is ready to use with default geometry; New picks explicit
// geometry. Queue is not safe for concurrent use — callers shard and lock
// (see livenet's wire) or are single-threaded (simnet).
package sched

import (
	"math"
	"slices"
)

// Default geometry: 256 buckets of width 1. Right for virtual-time workloads
// (simnet: tick period 10, messages one instant ahead), where a bucket holds
// exactly one instant and intra-bucket order is insertion order by
// construction.
const (
	defaultShift   = 0
	defaultBuckets = 256
)

// entry is one scheduled item: its deadline, its insertion sequence number
// (the deterministic tie-break), and the caller's value.
type entry[T any] struct {
	at  int64
	seq uint64
	val T
}

// Queue is a two-level calendar queue over int64 time. See the package
// comment for the structure and the determinism contract.
type Queue[T any] struct {
	shift   uint  // log2 of the bucket width
	mask    int64 // len(buckets)-1; bucket count is a power of two
	buckets [][]entry[T]

	// Cursor state. front is the bucket number (at>>shift) the cursor is
	// in; frontHead is the pop position inside that bucket; frontSorted
	// records whether the front bucket has been put in (time, seq) order.
	// Invariant: frontHead > 0 implies frontSorted.
	front       int64
	frontHead   int
	frontSorted bool

	l0       int // entries resident in level 0
	overflow []entry[T]
	ofMin    int64 // minimum bucket number in overflow; valid iff overflow is non-empty

	// spare holds the emptied backing arrays of released buckets. Only
	// occupied slots own an array; an empty slot is nil.
	spare [][]entry[T]

	size int
	seq  uint64
}

// New returns a queue with 1<<shift-wide buckets and `buckets` (rounded up
// to a power of two, minimum 2) level-0 slots. The window should cover the
// workload's typical scheduling horizon; events beyond it are still correct,
// just routed through the overflow level.
func New[T any](shift uint, buckets int) *Queue[T] {
	q := &Queue[T]{}
	q.init(shift, buckets)
	return q
}

func (q *Queue[T]) init(shift uint, buckets int) {
	n := 2
	for n < buckets {
		n <<= 1
	}
	q.shift = shift
	q.mask = int64(n - 1)
	q.buckets = make([][]entry[T], n)
}

// Len returns the number of pending entries.
func (q *Queue[T]) Len() int { return q.size }

// Push schedules v at time at, in O(1) amortised time. Entries pushed for a
// time already passed by the cursor are served next, in push order — the
// "schedule at now" case. Such a late push costs O(bucket): it clamps into
// the sorted front bucket, and the ordered insert there moves the whole
// undrained tail in memory. simnet never pushes late (every push is at
// now+1 or later); livenet's wire can, when PeekTime has moved the cursor
// past wall-clock time.
func (q *Queue[T]) Push(at int64, v T) {
	if q.buckets == nil {
		q.init(defaultShift, defaultBuckets)
	}
	e := entry[T]{at: at, seq: q.seq, val: v}
	q.seq++
	q.size++
	b := at >> q.shift
	if q.size == 1 {
		// Empty queue: re-anchor the window at the new entry so a long
		// quiet gap never forces the cursor to walk dead buckets. The old
		// front bucket may still hold a fully-popped (already zeroed)
		// prefix that was never recycled; release it or the re-anchored
		// cursor could serve those dead slots.
		q.release(q.front & q.mask)
		q.front = b
		q.frontHead = 0
		q.frontSorted = false
		q.appendTo(b&q.mask, e)
		q.l0++
		return
	}
	if b < q.front {
		// Late push (deadline at or before the cursor): clamp into the
		// front bucket; the (time, seq) insert below places it first
		// among what remains, which is exactly "run next".
		b = q.front
	}
	if b >= q.front+q.mask+1 {
		if len(q.overflow) == 0 || b < q.ofMin {
			q.ofMin = b
		}
		q.overflow = append(q.overflow, e)
		return
	}
	q.place(b, e)
	q.l0++
}

// place routes an in-window entry into its bucket. A bucket that is not the
// (sorted) front bucket takes a plain append — it is sorted only when the
// cursor reaches it. The sorted front bucket takes an ordered insert so the
// drain position stays valid.
func (q *Queue[T]) place(b int64, e entry[T]) {
	idx := b & q.mask
	if b == q.front && q.frontSorted {
		bkt := q.buckets[idx]
		// Upper bound by (time, seq) over the undrained tail. A fresh
		// push always carries the max seq, but re-binned overflow
		// entries carry old seqs, so compare both fields.
		lo, hi := q.frontHead, len(bkt)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bkt[mid].at < e.at || (bkt[mid].at == e.at && bkt[mid].seq < e.seq) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bkt = append(bkt, entry[T]{})
		copy(bkt[lo+1:], bkt[lo:])
		bkt[lo] = e
		q.buckets[idx] = bkt
		return
	}
	q.appendTo(idx, e)
	if b == q.front {
		q.frontSorted = false
	}
}

// appendTo appends e to the bucket in ring slot idx. An empty slot owns no
// array, so it takes one from the spare stack before appending.
func (q *Queue[T]) appendTo(idx int64, e entry[T]) {
	bkt := q.buckets[idx]
	if n := len(q.spare); bkt == nil && n > 0 {
		bkt = q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
	}
	q.buckets[idx] = append(bkt, e)
}

// release empties ring slot idx, zeroing its entries so their values can be
// collected, and pushes its backing array onto the spare stack.
func (q *Queue[T]) release(idx int64) {
	bkt := q.buckets[idx]
	if bkt == nil {
		return
	}
	clear(bkt)
	q.spare = append(q.spare, bkt[:0])
	q.buckets[idx] = nil
}

// PeekTime returns the deadline of the earliest entry.
func (q *Queue[T]) PeekTime() (int64, bool) {
	if q.size == 0 {
		return 0, false
	}
	return q.settle().at, true
}

// Pop removes and returns the earliest entry's value.
func (q *Queue[T]) Pop() (T, bool) {
	if q.size == 0 {
		var zero T
		return zero, false
	}
	e := q.settle()
	v := e.val
	*e = entry[T]{} // drop references so popped values can be collected
	q.frontHead++
	q.l0--
	q.size--
	return v, true
}

// AppendDue pops every entry with deadline <= now, in (time, seq) order,
// appending the values to buf and returning it. The append form lets a
// caller holding a lock collect due work into a scratch buffer and run it
// after unlocking.
func (q *Queue[T]) AppendDue(now int64, buf []T) []T {
	for q.size > 0 {
		e := q.settle()
		if e.at > now {
			break
		}
		buf = append(buf, e.val)
		*e = entry[T]{}
		q.frontHead++
		q.l0--
		q.size--
	}
	return buf
}

// Drain removes every pending entry, calling fn on each in no particular
// order, and resets the queue (retaining its geometry, and its arrays on the
// spare stack). Used at shutdown, where accounting needs each value but
// ordering is moot.
func (q *Queue[T]) Drain(fn func(T)) {
	for i := range q.buckets {
		bkt := q.buckets[i]
		head := 0
		if int64(i) == q.front&q.mask {
			head = q.frontHead
		}
		for j := head; j < len(bkt); j++ {
			fn(bkt[j].val)
		}
		q.release(int64(i))
	}
	for i := range q.overflow {
		fn(q.overflow[i].val)
	}
	clear(q.overflow)
	q.overflow = q.overflow[:0]
	q.frontHead = 0
	q.frontSorted = false
	q.l0 = 0
	q.size = 0
}

// settle positions the cursor on the earliest pending entry and returns a
// pointer to it. It must only be called with size > 0. Amortised O(1): the
// cursor only ever moves forward, and each overflow entry is re-binned a
// bounded number of times (the widening step bounds wraps per batch).
func (q *Queue[T]) settle() *entry[T] {
	for {
		if q.l0 == 0 {
			// Everything pending is in overflow: jump the window to the
			// earliest overflow bucket (widening first if the overflow
			// span would cause many wraps) and re-bin.
			q.jump()
			continue
		}
		idx := q.front & q.mask
		bkt := q.buckets[idx]
		if q.frontHead >= len(bkt) {
			// Front bucket exhausted: return its array to the spare
			// stack and advance.
			q.release(idx)
			q.frontHead = 0
			q.frontSorted = false
			q.front++
			if len(q.overflow) > 0 && q.ofMin <= q.front {
				// The cursor is entering territory the overflow owns;
				// pull its in-window entries in before serving anything.
				q.rebin()
			}
			continue
		}
		if len(q.overflow) > 0 && q.ofMin <= q.front {
			q.rebin()
			bkt = q.buckets[idx]
		}
		if !q.frontSorted {
			slices.SortFunc(bkt, func(a, b entry[T]) int {
				if a.at != b.at {
					if a.at < b.at {
						return -1
					}
					return 1
				}
				if a.seq < b.seq {
					return -1
				}
				return 1 // seqs are unique; equality is impossible
			})
			q.frontSorted = true
		}
		return &bkt[q.frontHead]
	}
}

// jump re-anchors an empty level 0 at the earliest overflow entry. If the
// overflow spans far more than the window (a sparse far-future workload),
// the bucket width doubles until the span fits within a few wraps, keeping
// the total re-binning work per batch linear instead of quadratic.
func (q *Queue[T]) jump() {
	// The old front bucket may hold a fully-popped zeroed prefix that was
	// never recycled (level 0 is empty, so that is all it can hold); the
	// re-anchored window may collide with its ring slot, so release it.
	q.release(q.front & q.mask)
	minAt, maxAt := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range q.overflow {
		at := q.overflow[i].at
		if at < minAt {
			minAt = at
		}
		if at > maxAt {
			maxAt = at
		}
	}
	window := q.mask + 1
	for q.shift < 40 && (maxAt>>q.shift)-(minAt>>q.shift) >= window*8 {
		q.shift++
	}
	q.front = minAt >> q.shift
	q.frontHead = 0
	q.frontSorted = false
	q.rebin()
}

// rebin moves every overflow entry whose bucket now falls inside the level-0
// window into its bucket, and recomputes the overflow minimum.
func (q *Queue[T]) rebin() {
	limit := q.front + q.mask + 1
	keep := q.overflow[:0]
	newMin := int64(math.MaxInt64)
	for _, e := range q.overflow {
		b := e.at >> q.shift
		if b < q.front {
			b = q.front
		}
		if b < limit {
			q.place(b, e)
			q.l0++
			continue
		}
		keep = append(keep, e)
		if b < newMin {
			newMin = b
		}
	}
	clear(q.overflow[len(keep):])
	q.overflow = keep
	q.ofMin = newMin
}
