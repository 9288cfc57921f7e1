package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// popAll drains q and returns the values in pop order.
func popAll(q *Queue[int]) []int {
	var out []int
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// refEntry mirrors the queue's ordering contract for the model checks.
type refEntry struct {
	at  int64
	seq int
}

func refOrder(entries []refEntry) []int {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := entries[idx[a]], entries[idx[b]]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		return ea.seq < eb.seq
	})
	return idx
}

// TestQueueOrdering pushes a shuffled batch and checks strict (time, seq)
// pop order — the contract both engines rely on.
func TestQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := New[int](0, 64)
	const total = 5000
	entries := make([]refEntry, total)
	for i := range entries {
		entries[i] = refEntry{at: int64(rng.Intn(200)), seq: i}
		q.Push(entries[i].at, i)
	}
	want := refOrder(entries)
	got := popAll(q)
	if len(got) != total {
		t.Fatalf("popped %d entries, want %d", len(got), total)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = entry %d (at=%d seq=%d), want entry %d (at=%d seq=%d)",
				i, got[i], entries[got[i]].at, entries[got[i]].seq,
				want[i], entries[want[i]].at, entries[want[i]].seq)
		}
	}
}

// TestQueuePeek pins PeekTime's contract: it reports exactly the deadline
// of the entry the next Pop returns, without consuming it, at every point
// of a randomized workload.
func TestQueuePeek(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := New[int64](0, 16)
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported ok")
	}
	check := func() {
		at, pok := q.PeekTime()
		v, ok := q.Pop()
		if !pok || !ok || at != v {
			t.Fatalf("PeekTime = (%d, %v) but Pop = (%d, %v)", at, pok, v, ok)
		}
	}
	for i := 0; i < 2000; i++ {
		at := int64(rng.Intn(500))
		q.Push(at, at)
		if rng.Intn(3) == 0 {
			check()
		}
	}
	for q.Len() > 0 {
		check()
	}
}

// TestQueueInterleavedModel is the main correctness hammer: a long random
// interleaving of pushes (including far-future times, same-instant ties,
// and pushes before the cursor) and pops, checked against a reference
// (time, push order) minimum at every pop. Two starting ring sizes; on the
// 2-slot ring nearly every push grows it.
func TestQueueInterleavedModel(t *testing.T) {
	geometries := []struct {
		name    string
		buckets int
	}{
		{"w1xb256", 256},
		{"w1xb2", 2},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			q := New[int](0, g.buckets)
			type live struct {
				at  int64
				seq int
			}
			var pending []live
			var now int64
			seq := 0
			for step := 0; step < 60000; step++ {
				if rng.Intn(3) > 0 || len(pending) == 0 {
					var at int64
					switch rng.Intn(10) {
					case 0: // at or before the cursor: moves it back
						at = now - int64(rng.Intn(4))
					case 1: // far future: grows the ring
						at = now + int64(rng.Intn(100000))
					default: // bounded horizon, the dominant workload
						at = now + int64(rng.Intn(40))
					}
					q.Push(at, seq)
					pending = append(pending, live{at: at, seq: seq})
					seq++
					continue
				}
				// Pop, and check it is the (time, push order) minimum.
				best := 0
				for i := 1; i < len(pending); i++ {
					if pending[i].at != pending[best].at {
						if pending[i].at < pending[best].at {
							best = i
						}
					} else if pending[i].seq < pending[best].seq {
						best = i
					}
				}
				v, ok := q.Pop()
				if !ok {
					t.Fatalf("step %d: Pop empty with %d pending", step, len(pending))
				}
				if v != pending[best].seq {
					t.Fatalf("step %d: popped seq %d, want seq %d (at=%d)",
						step, v, pending[best].seq, pending[best].at)
				}
				if pending[best].at > now {
					now = pending[best].at
				}
				pending = append(pending[:best], pending[best+1:]...)
			}
			// Drain the tail in order.
			sort.Slice(pending, func(a, b int) bool {
				if pending[a].at != pending[b].at {
					return pending[a].at < pending[b].at
				}
				return pending[a].seq < pending[b].seq
			})
			for i, want := range pending {
				v, ok := q.Pop()
				if !ok || v != want.seq {
					t.Fatalf("tail pop %d = %d (ok=%v), want %d", i, v, ok, want.seq)
				}
			}
			if _, ok := q.Pop(); ok {
				t.Fatal("queue should be empty")
			}
		})
	}
}

// TestQueueLatePushClamped pins the "schedule at now" semantics: an entry
// pushed for a deadline the cursor already passed runs next, after nothing.
func TestQueueLatePushClamped(t *testing.T) {
	q := New[int](0, 16)
	q.Push(5, 1)
	q.Push(9, 2)
	if v, _ := q.Pop(); v != 1 {
		t.Fatalf("first pop = %d, want 1", v)
	}
	// Cursor is at 5; deadline 0 is in the past and must still pop before
	// the pending entry at 9.
	q.Push(0, 3)
	if v, _ := q.Pop(); v != 3 {
		t.Fatalf("late push did not run next")
	}
	if v, _ := q.Pop(); v != 2 {
		t.Fatalf("final pop wrong")
	}
}

// TestQueueLatePushGrows pins the ring's span after a late push: with the
// cursor at 5 and an entry pending at 20, a push at 0 needs 21 slots. On
// the 16-slot ring times 20 and 4 share slot 4, so a late push that does
// not grow the ring serves 20 out of order or loses it.
func TestQueueLatePushGrows(t *testing.T) {
	q := New[int](0, 16)
	q.Push(5, 5)
	q.Push(20, 20)
	if v, _ := q.Pop(); v != 5 {
		t.Fatalf("first pop = %d, want 5", v)
	}
	q.Push(0, 0)
	for _, want := range []int{0, 20} {
		at, _ := q.PeekTime()
		if v, ok := q.Pop(); !ok || v != want || at != int64(want) {
			t.Fatalf("pop = %d at %d (ok=%v), want %d", v, at, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", q.Len())
	}
}

// TestQueueReanchorAfterEmpty is the regression for the stale front bucket:
// drain the queue, then push a time whose ring slot collides with the old
// front bucket. The popped prefix must not resurface as zero values.
func TestQueueReanchorAfterEmpty(t *testing.T) {
	q := New[int](0, 16)
	q.Push(3, 10)
	q.Push(3, 11)
	if v, _ := q.Pop(); v != 10 {
		t.Fatal("warmup pop 1")
	}
	if v, _ := q.Pop(); v != 11 {
		t.Fatal("warmup pop 2")
	}
	// Same ring slot as bucket 3 (16-bucket ring): bucket 19.
	q.Push(19, 12)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if v, ok := q.Pop(); !ok || v != 12 {
		t.Fatalf("re-anchored pop = %d (ok=%v), want 12", v, ok)
	}

	// Re-anchor onto the stale front slot, then grow past it: 19+16
	// shares ring slot 3 with the front bucket at 19, so it needs a
	// 32-slot ring and must still pop last, at its own time.
	q.Push(19, 20)
	q.Push(19, 21)
	q.Push(19+16, 22)
	if v, _ := q.Pop(); v != 20 {
		t.Fatal("grow warmup pop 1")
	}
	if v, _ := q.Pop(); v != 21 {
		t.Fatal("grow warmup pop 2")
	}
	if at, _ := q.PeekTime(); at != 19+16 {
		t.Fatalf("PeekTime after growth = %d, want %d", at, 19+16)
	}
	if v, ok := q.Pop(); !ok || v != 22 {
		t.Fatalf("post-grow pop = %d (ok=%v), want 22", v, ok)
	}
}

// TestQueueZeroValue checks the zero Queue initialises itself on first Push.
func TestQueueZeroValue(t *testing.T) {
	var q Queue[string]
	q.Push(2, "b")
	q.Push(1, "a")
	if v, _ := q.Pop(); v != "a" {
		t.Fatal("zero-value queue misordered")
	}
	if v, _ := q.Pop(); v != "b" {
		t.Fatal("zero-value queue misordered")
	}
}

// TestQueueSteadyStateAllocs pins the tick-shaped steady state — push one
// bounded-horizon entry per pop — at zero allocations per operation once
// bucket capacities are warm.
func TestQueueSteadyStateAllocs(t *testing.T) {
	q := New[int](0, 256)
	var now int64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		q.Push(now+int64(1+rng.Intn(20)), i)
	}
	// Warm until the circulating arrays and the spare stack have reached
	// their high-water capacities; growing them is the only allocation
	// source. Arrays move between ring slots, so a slot's next array may be
	// one that has not yet carried that slot's busiest load; the warm loop
	// must outlast the occupancy maxima's slow logarithmic climb.
	for i := 0; i < 1<<17; i++ {
		v, _ := q.Pop()
		at, _ := q.PeekTime()
		now = at
		q.Push(now+int64(1+rng.Intn(20)), v)
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			v, _ := q.Pop()
			at, _ := q.PeekTime()
			now = at
			q.Push(now+int64(1+rng.Intn(20)), v)
		}
	})
	if avg != 0 {
		t.Errorf("steady state allocates %.2f objects per 64-op batch, want 0", avg)
	}
}

// TestQueueArraysFollowOccupiedBuckets pins the memory bound: on simnet's
// tick-shaped load (each entry a period-10 tick that also sends a message
// one instant ahead) at most 11 buckets are occupied at once, so after many
// wraps of the ring the queue must hold at most 13 backing arrays (the
// horizon plus 2), counted over the ring slots and the spare stack. A
// queue that parks one array per ring slot holds 16. The ring itself must
// stay at 16 slots, the power of two over the 11-instant horizon.
func TestQueueArraysFollowOccupiedBuckets(t *testing.T) {
	const (
		period = 10
		ticks  = 1000
		wraps  = 40
		msg    = -1
	)
	var q Queue[int]
	for i := 0; i < ticks; i++ {
		q.Push(int64(i%period), i)
	}
	for {
		at, _ := q.PeekTime()
		if at >= 256*wraps {
			break
		}
		v, _ := q.Pop()
		if v != msg {
			q.Push(at+period, v)
			q.Push(at+1, msg)
		}
	}
	if len(q.ring) != 16 {
		t.Errorf("ring has %d slots, want 16", len(q.ring))
	}
	arrays := 0
	for _, bkt := range q.ring {
		if cap(bkt) > 0 {
			arrays++
		}
	}
	for _, bkt := range q.spare {
		if cap(bkt) > 0 {
			arrays++
		}
	}
	if arrays > period+3 {
		t.Errorf("queue holds %d backing arrays after %d wraps, want <= %d", arrays, wraps, period+3)
	}
}
