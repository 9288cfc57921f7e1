package simnet

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sched"
)

// TestEventQueueOrdering feeds the engine's wheel a shuffled workload of
// events and checks they pop in (time, push order) — the exact contract the
// old container/heap implementation provided. Each event carries its push
// index as its payload.
func TestEventQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q sched.Queue[event]
	const total = 2000
	events := make([]event, total)
	for i := range events {
		events[i] = event{time: int64(rng.Intn(50)), kind: evTick, msg: i}
	}
	for _, e := range events {
		q.Push(e.time, e)
	}
	want := make([]event, total)
	copy(want, events)
	sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
	for i := range want {
		got, _ := q.Pop()
		if got.time != want[i].time || got.msg != want[i].msg {
			t.Fatalf("pop %d = (t=%d push %v), want (t=%d push %v)",
				i, got.time, got.msg, want[i].time, want[i].msg)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// TestEventQueueSteadyStateAllocs checks that a drain-and-refill workload
// recycles bucket storage in place instead of allocating — the property the
// pooled heap had and the calendar queue must keep.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q sched.Queue[event]
	const width = 64
	for i := 0; i < width; i++ {
		q.Push(int64(i), event{time: int64(i)})
	}
	warm := func(rounds int) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < width; i++ {
				e, _ := q.Pop()
				next := event{time: e.time + width}
				q.Push(next.time, next)
			}
		}
	}
	warm(100)
	avg := testing.AllocsPerRun(100, func() { warm(1) })
	if avg != 0 {
		t.Errorf("steady-state churn allocates %.2f objects per round, want 0", avg)
	}
}

// TestRunProcessedCountDeterministic runs the same configuration twice and
// compares Stats and the per-Run processed event counts — the regression
// guard the event-queue rewrite must keep satisfying.
func TestRunProcessedCountDeterministic(t *testing.T) {
	run := func() ([]int, Stats) {
		n := New(Config{Seed: 7, Drop: 0.25})
		a, b, c := n.AddNode(), n.AddNode(), n.AddNode()
		_ = n.Attach(a, 1, &echoProto{pingOn: b}, 3, 0)
		_ = n.Attach(b, 1, &echoProto{pingOn: c}, 4, 1)
		_ = n.Attach(c, 1, &echoProto{pingOn: a}, 5, 2)
		var counts []int
		for step := int64(100); step <= 1000; step += 100 {
			counts = append(counts, n.Run(step))
		}
		return counts, n.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("processed counts diverged at step %d: %d vs %d", i, c1[i], c2[i])
		}
	}
}
