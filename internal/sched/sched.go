// Package sched implements a calendar queue over int64 time with one FIFO
// bucket per instant: O(1) amortised push and pop for simnet's
// tick-dominated load, where nearly every push is a bounded distance ahead
// (a gossip tick one period, a message one instant), and a binary heap
// would pay O(log n) sifts per event.
//
// # Structure
//
// The queue is a power-of-two ring of buckets, one per instant: the entries
// due at time t sit in bucket t&mask in the order they were pushed. The
// ring always spans every pending entry — from the cursor, the earliest
// instant that can hold one, to the latest pending time — and doubles when
// a push would reach past it, so a time maps to exactly one bucket and the
// ring's length follows the longest pending distance.
//
// # Memory
//
// Backing arrays follow the buckets that are occupied, not the ring. When
// the cursor leaves an exhausted bucket its array goes onto a spare stack
// and the slot is left empty; a bucket that receives its first entry takes
// an array from that stack. The number of arrays is therefore bounded by
// the largest number of buckets occupied at once, plus one: on simnet's
// tick shape (ticks one period ahead, messages one instant ahead) about a
// dozen, each sized to the busiest instant it has carried.
//
// # Determinism
//
// Pop yields entries in (time, push order), exactly like a stable binary
// heap over (time, seq), with no sequence number and no sort. The pop
// order is a pure function of the push sequence, which is what lets the
// deterministic simulator replace its heap without perturbing a single
// golden trace.
//
// The zero Queue is ready to use. Queue is not safe for concurrent use:
// simnet keeps one per shard, each driven by one goroutine.
package sched

// Queue is a calendar queue over int64 time; see the package comment.
type Queue[T any] struct {
	ring [][]T
	mask int64 // len(ring)-1; the ring length is a power of two

	cur  int64 // earliest instant that can hold a pending entry
	head int   // entries of cur's bucket already popped
	last int64 // latest pending time while the queue is non-empty
	size int

	spare [][]T // arrays of released buckets; an unoccupied slot is nil
}

// New returns a queue whose ring starts with `buckets` slots (rounded up to
// a power of two); the ring grows past that as pending entries need. shift
// must be 0: every bucket is one instant wide.
func New[T any](shift uint, buckets int) *Queue[T] {
	if shift != 0 {
		panic("sched: buckets are one instant wide; shift must be 0")
	}
	q := &Queue[T]{}
	q.grow(int64(buckets))
	return q
}

// Len returns the number of pending entries.
func (q *Queue[T]) Len() int { return q.size }

// Push schedules v at time at, in O(1) amortised time. A push before the
// cursor (a late push) moves the cursor back to at: O(1) unless entries of
// the front bucket were popped, when the rest of it moves to its start.
// simnet pushes late only between Run calls, when nothing of it was
// popped: an Attach whose start lands before every pending entry (fig3 at
// n=1024, seed 1: 2 pushes; churn: 16).
func (q *Queue[T]) Push(at int64, v T) {
	switch {
	case q.size == 0:
		// Re-anchor so a quiet gap is never walked; the old front bucket
		// holds only popped entries.
		if q.ring != nil {
			q.release(q.cur & q.mask)
		}
		q.cur, q.last, q.head = at, at, 0
	case at < q.cur:
		if q.head > 0 {
			i := q.cur & q.mask
			bkt := q.ring[i]
			n := copy(bkt, bkt[q.head:])
			clear(bkt[n:])
			q.ring[i] = bkt[:n]
			q.head = 0
		}
		// Grow while the cursor still names the old front: grow places
		// buckets by their times, counted from the cursor.
		q.grow(q.last - at + 1)
		q.cur = at
	}
	q.last = max(q.last, at)
	q.grow(q.last - q.cur + 1)
	i := at & q.mask
	bkt := q.ring[i]
	if n := len(q.spare); bkt == nil && n > 0 {
		bkt = q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
	}
	q.ring[i] = append(bkt, v)
	q.size++
}

// grow doubles the ring until it has at least span slots, moving each
// bucket to the slot of its time.
func (q *Queue[T]) grow(span int64) {
	n := int64(len(q.ring))
	if span <= n {
		return
	}
	n = max(n, 2)
	for n < span {
		n <<= 1
	}
	ring := make([][]T, n)
	for i, bkt := range q.ring {
		if bkt != nil {
			t := q.cur + (int64(i)-q.cur)&q.mask
			ring[t&(n-1)] = bkt
		}
	}
	q.ring, q.mask = ring, n-1
}

// release moves the array of slot i, all popped and zeroed, to spare.
func (q *Queue[T]) release(i int64) {
	if bkt := q.ring[i]; bkt != nil {
		q.spare = append(q.spare, bkt[:0])
		q.ring[i] = nil
	}
}

// settle moves the cursor forward to the earliest pending entry, releasing
// each exhausted bucket it leaves. It must only be called with size > 0.
func (q *Queue[T]) settle() {
	for q.head >= len(q.ring[q.cur&q.mask]) {
		q.release(q.cur & q.mask)
		q.head = 0
		q.cur++
	}
}

// PeekTime returns the deadline of the earliest entry.
func (q *Queue[T]) PeekTime() (int64, bool) {
	if q.size == 0 {
		return 0, false
	}
	q.settle()
	return q.cur, true
}

// Pop removes and returns the earliest entry's value.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	q.settle()
	bkt := q.ring[q.cur&q.mask]
	v := bkt[q.head]
	bkt[q.head] = zero // drop references so popped values can be collected
	q.head++
	q.size--
	return v, true
}
