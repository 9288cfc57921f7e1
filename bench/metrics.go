package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric: its name, unit, which direction is
// better, and — for end-to-end metrics — the share of the baseline median
// by which it may worsen before -compare calls it a regression.
// BENCHMARK.json carries the same table; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, reported by every workload
// from its untraced run. The unit of work is the workload's own: a
// simulated node-cycle (boot-sim, churn-sim, churn-live), a delivered
// message (relay-*), a DHT operation (serve).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"work_per_s", "1/s", higher, 0.25},
	{"cpu_us_per_work", "us", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.2},
}

// perLayer is what the traced run attributes to single layers. Every
// workload reports every name: 0 means the workload does not exercise the
// layer, -1 that the number could not be read on this machine.
var perLayer = []metricDef{
	{"core.tick_ns", "ns", lower, 0},
	{"core.handle_ns", "ns", lower, 0},
	{"core.busy_frac", "frac", lower, 0},
	{"core.msgs_per_node_cycle", "count", lower, 0},
	{"core.entries_per_msg", "count", lower, 0},
	{"core.wire_units_per_node_cycle", "count", lower, 0},
	{"core.new_node_us", "us", lower, 0},
	{"peer.sort_ring_ns", "ns", lower, 0},
	{"peer.set_add_ns", "ns", lower, 0},
	{"peer.arena_get_put_ns", "ns", lower, 0},
	{"flat.get_ns", "ns", lower, 0},
	{"flat.put_ns", "ns", lower, 0},
	{"sampling.append_sample_ns", "ns", lower, 0},
	{"sampling.calls_per_tick", "count", lower, 0},
	{"sampling.oracle_update_us", "us", lower, 0},
	{"sampling.busy_frac", "frac", lower, 0},
	{"newscast.tick_ns", "ns", lower, 0},
	{"newscast.handle_ns", "ns", lower, 0},
	{"newscast.busy_frac", "frac", lower, 0},
	{"sched.push_pop_ns", "ns", lower, 0},
	{"engine.send_ns", "ns", lower, 0},
	{"simnet.dispatch_ns", "ns", lower, 0},
	{"simnet.events", "count", lower, 0},
	{"simnet.busy_frac", "frac", lower, 0},
	{"simnet.kill_us", "us", lower, 0},
	{"simnet.shard_efficiency", "frac", higher, 0},
	{"livenet.cpu_ns_per_msg", "ns", lower, 0},
	{"livenet.dispatch_ns", "ns", lower, 0},
	{"livenet.pause_all_ms", "ms", lower, 0},
	{"livenet.resume_all_ms", "ms", lower, 0},
	{"livenet.kill_us", "us", lower, 0},
	{"livenet.respawn_us", "us", lower, 0},
	{"livenet.overflow_frac", "frac", lower, 0},
	{"livenet.dropped_frac", "frac", lower, 0},
	{"livenet.ticks_skipped_frac", "frac", lower, 0},
	{"livenet.start_ms", "ms", lower, 0},
	{"livenet.close_ms", "ms", lower, 0},
	{"transport.cpu_ns_per_msg", "ns", lower, 0},
	{"transport.write_syscalls_per_msg", "count", lower, 0},
	{"transport.read_syscalls_per_msg", "count", lower, 0},
	{"transport.bytes_per_msg", "B", lower, 0},
	{"transport.overflow_frac", "frac", lower, 0},
	{"transport.dropped_frac", "frac", lower, 0},
	{"transport.conserved", "count", higher, 0},
	{"transport.start_ms", "ms", lower, 0},
	{"transport.quiesce_ms", "ms", lower, 0},
	{"wire.encode_ns.small", "ns", lower, 0},
	{"wire.encode_ns.full", "ns", lower, 0},
	{"wire.decode_ns.small", "ns", lower, 0},
	{"wire.decode_ns.full", "ns", lower, 0},
	{"wire.allocs_per_op", "count", lower, 0},
	{"wire.frame_bytes.full", "B", lower, 0},
	{"truth.new_ms", "ms", lower, 0},
	{"truth.measure_all_ms", "ms", lower, 0},
	{"truth.measure_sample_ms", "ms", lower, 0},
	{"truth.update_us", "us", lower, 0},
	{"truth.busy_frac", "frac", lower, 0},
	{"experiment.overhead_ratio", "ratio", lower, 0},
	{"experiment.converged_cycle", "count", lower, 0},
	{"experiment.heap_bytes_per_node", "B", lower, 0},
	{"dht.get_ns", "ns", lower, 0},
	{"dht.put_ns", "ns", lower, 0},
	{"dht.get_p99_ns", "ns", lower, 0},
	{"dht.allocs_per_op", "count", lower, 0},
	{"dht.remove_us", "us", lower, 0},
	{"dht.join_us", "us", lower, 0},
	{"dht.hops_mean", "count", lower, 0},
	{"dht.degraded_frac", "frac", lower, 0},
	{"dht.notfound_frac", "frac", lower, 0},
	{"dht.noroute_frac", "frac", lower, 0},
	{"dht.new_cluster_ms", "ms", lower, 0},
	{"pastry.route_ns", "ns", lower, 0},
	{"pastry.from_bootstrap_ms", "ms", lower, 0},
	{"load.preload_ms", "ms", lower, 0},
	{"load.gen_overhead_ns", "ns", lower, 0},
	{"load.ops_per_s.get95", "1/s", higher, 0},
	{"load.ops_per_s.put50", "1/s", higher, 0},
	{"bench.relay_handle_ns", "ns", lower, 0},
	{"bench.busy_frac", "frac", lower, 0},
	{"trace_overhead_frac", "frac", lower, 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number. Value is the median when the metric
// was sampled more than once; N is the sample count, Min and Max its
// range, and Tail — where there are enough samples — the highest
// percentile that still has ten samples beyond it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Tail  string  `json:"tail,omitempty"` // e.g. "p99"
	TailV float64 `json:"tail_value,omitempty"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Digests are the outcome hashes of deterministic trials, printed so
	// a speed-only change can prove the simulated statistics did not move.
	Digests []string `json:"digests,omitempty"`
	// Notes are gate verdicts, unavailable-metric reasons and warnings.
	Notes []string `json:"notes,omitempty"`
	Env   *envInfo `json:"env,omitempty"`

	defs []metricDef
}

func newResult(workload string, seed int64, seconds float64, trace bool) *result {
	r := &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Metrics: make(map[string]metricValue), defs: endToEnd,
	}
	if trace {
		r.defs = perLayer
	}
	return r
}

// fail records a correctness-gate violation.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "GATE FAILED: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// set reports a metric from its samples: the median, with range, count
// and tail percentile. Reporting a name twice, or one this run's mode does
// not declare, is a bug in the benchmark.
func (r *result) set(name string, samples ...float64) {
	def, ok := findMetric(r.defs, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric reported twice: " + name)
	}
	mv := metricValue{Unit: def.Unit, N: len(samples)}
	if len(samples) > 0 {
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		mv.Value, mv.Min, mv.Max = medianSorted(s), s[0], s[len(s)-1]
		mv.Tail, mv.TailV = tailPercentile(s)
	}
	r.Metrics[name] = mv
}

// fillAbsent reports 0 for every declared metric the workload left out:
// the layer is not on this workload's path.
func (r *result) fillAbsent() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metricValue{Unit: d.Unit}
		}
	}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return medianSorted(s)
}

// percentile returns the p-quantile (nearest rank) of unsorted samples.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(float64(len(s))*p))-1, 0)]
}

// tailPercentile picks the highest of a fixed ladder of percentiles that
// still has at least ten samples beyond it, from sorted samples.
func tailPercentile(s []float64) (string, float64) {
	ladder := []struct {
		label string
		p     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}}
	n := float64(len(s))
	for _, l := range ladder {
		if n*(1-l.p) >= 10 {
			return l.label, s[int(math.Ceil(n*l.p))-1]
		}
	}
	return "", 0
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is how the
// acceptance check measures spread. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
