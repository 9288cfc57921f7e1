package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet is the untraced runs of one -out file, grouped for comparison.
type runSet struct {
	// values[workload][metric] holds one value per run.
	values map[string]map[string][]float64
	// attempted and failed sum over the runs of a workload.
	attempted, failed map[string]int64
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue // per-layer metrics carry no bound
		}
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			rs.values[r.Workload][name] = append(rs.values[r.Workload][name], m.Value)
		}
		rs.attempted[r.Workload] += r.Attempted
		rs.failed[r.Workload] += r.Failed
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return rs, nil
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// spread is the distance between the quartiles as a share of the median;
// 0 for fewer than two runs.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// judge compares the runs b of a change against the runs a of its base:
// regressed when b's median moved in the bad direction by more than the
// bound, as a share of a's. When either side's runs spread wider than the
// bound the row cannot be called either way — unresolved — unless every
// run of b reads better than every run of a.
func judge(def metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == higher {
			worse = -worse
		}
	}
	if max(spread(a), spread(b)) > def.Bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter := sb[len(sb)-1] < sa[0]
		if def.Better == higher {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if allBetter {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worse > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any row regressed or a workload's failed
// share rose.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*runSet
	for i, path := range []string{pathA, pathB} {
		rs, err := readRunSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = rs
	}
	return compareSets(sets[0], sets[1], stdout)
}

func compareSets(a, b *runSet, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-17s %-16s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base median", "new median", "new/base", "spreadA", "spreadB", "verdict")
	for _, w := range workloads {
		va, vb := a.values[w.name], b.values[w.name]
		if va == nil || vb == nil {
			continue
		}
		for _, def := range endToEnd {
			xa, xb := va[def.Name], vb[def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict := judge(def, xa, xb)
			if verdict == verdictRegressed {
				code = 1
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(stdout, "%-17s %-16s %14.6g %14.6g %9.4f %7.4f %7.4f  %s (bound %g, %s is better, n=%d/%d)\n",
				w.name, def.Name, ma, mb, mb/ma, spread(xa), spread(xb), verdict, def.Bound, def.Better, len(xa), len(xb))
		}
		fa := float64(a.failed[w.name]) / float64(max(a.attempted[w.name], 1))
		fb := float64(b.failed[w.name]) / float64(max(b.attempted[w.name], 1))
		if fb > fa {
			code = 1
			fmt.Fprintf(stdout, "%-17s failed share rose: %d/%d -> %d/%d  regressed\n",
				w.name, a.failed[w.name], a.attempted[w.name], b.failed[w.name], b.attempted[w.name])
		}
	}
	return code
}
