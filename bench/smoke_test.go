package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is ../BENCHMARK.json, the committed description of this
// program that the tests hold it to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program {%s %s}", i, got, w.name, w.why)
		}
	}
	for _, c := range []struct {
		what      string
		file, own []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.own) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.file), len(c.own))
			continue
		}
		for i := range c.own {
			if c.file[i] != c.own[i] {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the program %+v", c.what, i, c.file[i], c.own[i])
			}
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// exercised names, per workload, per-layer metrics that must come out
// non-zero at toy size: proof the traced run reaches the layer, not just
// that the name is filled in.
var exercised = map[string][]string{
	"boot-sim":         {"core.tick_ns", "core.handle_ns", "core.busy_frac", "core.entries_per_msg", "sampling.append_sample_ns", "simnet.dispatch_ns", "simnet.events", "truth.measure_all_ms", "experiment.overhead_ratio", "experiment.heap_bytes_per_node", "engine.send_ns"},
	"churn-sim":        {"core.tick_ns", "newscast.tick_ns", "newscast.handle_ns", "simnet.kill_us", "simnet.shard_efficiency", "sampling.oracle_update_us", "truth.measure_sample_ms", "truth.update_us"},
	"churn-live":       {"core.tick_ns", "livenet.dispatch_ns", "livenet.pause_all_ms", "livenet.resume_all_ms", "livenet.start_ms", "livenet.close_ms", "truth.measure_all_ms"},
	"relay-sim":        {"simnet.dispatch_ns", "simnet.events", "bench.relay_handle_ns"},
	"relay-live":       {"livenet.cpu_ns_per_msg", "livenet.start_ms", "livenet.close_ms"},
	"relay-sock-small": {"transport.cpu_ns_per_msg", "transport.conserved", "transport.start_ms", "transport.quiesce_ms", "transport.write_syscalls_per_msg", "transport.bytes_per_msg"},
	"relay-sock-full":  {"transport.cpu_ns_per_msg", "transport.conserved", "transport.bytes_per_msg", "wire.frame_bytes.full"},
	"serve":            {"dht.remove_us", "dht.hops_mean", "dht.new_cluster_ms", "pastry.from_bootstrap_ms", "load.preload_ms", "load.ops_per_s.get95", "load.ops_per_s.put50", "dht.get_ns", "pastry.route_ns"},
}

// TestSmokeEveryWorkload runs every workload at toy size, untraced and
// traced, and checks that each run reports exactly the metrics
// BENCHMARK.json names for its mode, each once.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	names := func(defs []metricDef) []string {
		out := make([]string, len(defs))
		for i, d := range defs {
			out[i] = d.Name
		}
		sort.Strings(out)
		return out
	}
	want := map[bool][]string{false: names(bf.EndToEnd), true: names(bf.PerLayer)}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runOne(w, 3, 0.05, traced, toySizes, dir)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(contractLine(r))))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s traced=%v: result line %s: %v", w.name, traced, contractLine(r), err)
				continue
			}
			var got []string
			for name, m := range line.Metrics {
				got = append(got, name)
				if m.Value == nil || m.Unit == nil {
					t.Errorf("%s: metric %s lacks value or unit", w.name, name)
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, want[traced]) {
				t.Errorf("%s traced=%v reports\n%v\nwant\n%v", w.name, traced, got, want[traced])
			}
			if *line.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted = %d", w.name, traced, *line.Attempted)
			}
			// Whether a toy live trial converges in time is the
			// scheduler's call; every other gate is deterministic.
			if !r.Correct && w.name != "churn-live" {
				t.Errorf("%s traced=%v: gates failed: %v", w.name, traced, r.Notes)
			}
			if !traced {
				for name, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
					}
				}
				continue
			}
			for _, name := range exercised[w.name] {
				if r.Metrics[name].Value == 0 {
					t.Errorf("%s: traced run left %s at 0", w.name, name)
				}
			}
			if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}
