package host

import (
	"reflect"
	"testing"
	"time"
)

// TestStepSchedule pins the tick schedule as arithmetic, without a clock:
// which callbacks a step at `now` owes, where each binding is due next, and
// when the host must wake. The loop in Host.run adds only the timer.
func TestStepSchedule(t *testing.T) {
	const ms = time.Millisecond
	type call struct {
		pid  int
		init bool
	}
	type stepAt struct {
		now   time.Duration
		fires []call
		sched []time.Duration // due times after the step
		wake  time.Duration
	}
	cases := []struct {
		name  string
		bs    []binding // pid-sorted, as Attach keeps them
		steps []stepAt
	}{
		{"on time keeps phase", []binding{{pid: 1, period: 10 * ms}}, []stepAt{
			{0, []call{{1, true}}, []time.Duration{10 * ms}, 10 * ms},
			{10 * ms, []call{{1, false}}, []time.Duration{20 * ms}, 20 * ms},
			// Woken 3 ms late: the next tick is still due at 30, not 33.
			{23 * ms, []call{{1, false}}, []time.Duration{30 * ms}, 30 * ms},
			{30 * ms, []call{{1, false}}, []time.Duration{40 * ms}, 40 * ms},
		}},
		{"missed periods fire once and land a full period after now", []binding{{pid: 1, period: 10 * ms}}, []stepAt{
			{0, []call{{1, true}}, []time.Duration{10 * ms}, 10 * ms},
			// Due at 10, 20, 30, 40, 50 and 60 while parked: one tick owed.
			{64 * ms, []call{{1, false}}, []time.Duration{74 * ms}, 74 * ms},
			{70 * ms, nil, []time.Duration{74 * ms}, 74 * ms},
			{74 * ms, []call{{1, false}}, []time.Duration{84 * ms}, 84 * ms},
			// Exactly k = 2: due at 84 and 94.
			{94 * ms, []call{{1, false}}, []time.Duration{104 * ms}, 104 * ms},
		}},
		{"init strictly before the first tick", []binding{{pid: 1, period: 10 * ms, offset: 5 * ms}}, []stepAt{
			{0, nil, []time.Duration{5 * ms}, 5 * ms},
			{4 * ms, nil, []time.Duration{5 * ms}, 5 * ms},
			// Far past offset+period: Init alone, its first Tick a period on.
			{40 * ms, []call{{1, true}}, []time.Duration{50 * ms}, 50 * ms},
			{50 * ms, []call{{1, false}}, []time.Duration{60 * ms}, 60 * ms},
		}},
		{"a reactive binding inits once and retires", []binding{{pid: 1, offset: 2 * ms}}, []stepAt{
			{0, nil, []time.Duration{2 * ms}, 2 * ms},
			{2 * ms, []call{{1, true}}, []time.Duration{never}, never},
			{1000 * ms, nil, []time.Duration{never}, never},
		}},
		{"same instant fires in pid order", []binding{{pid: 1, period: 20 * ms}, {pid: 2}, {pid: 3, period: 10 * ms}}, []stepAt{
			{0, []call{{1, true}, {2, true}, {3, true}}, []time.Duration{20 * ms, never, 10 * ms}, 10 * ms},
			{10 * ms, []call{{3, false}}, []time.Duration{20 * ms, never, 20 * ms}, 20 * ms},
			{20 * ms, []call{{1, false}, {3, false}}, []time.Duration{40 * ms, never, 30 * ms}, 30 * ms},
		}},
		{"nothing scheduled means no wake", nil, []stepAt{
			{0, nil, []time.Duration{}, never},
		}},
	}
	for _, c := range cases {
		sched := make([]time.Duration, len(c.bs))
		for i, b := range c.bs {
			sched[i] = b.offset
		}
		for _, s := range c.steps {
			var fires []call
			wake := step(c.bs, sched, s.now, func(b *binding, init bool) {
				fires = append(fires, call{int(b.pid), init})
			})
			if !reflect.DeepEqual(fires, s.fires) || !reflect.DeepEqual(sched, s.sched) || wake != s.wake {
				t.Errorf("%s: step at %v fired %v, due %v, wake %v; want %v, %v, %v",
					c.name, s.now, fires, sched, wake, s.fires, s.sched, s.wake)
			}
		}
	}
}
