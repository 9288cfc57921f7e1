package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one untraced boot-sim record per work_per_s value.
func writeRuns(t *testing.T, name string, rates []float64, attempted, failed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for _, v := range rates {
		r := newResult("boot-sim", 1, 10, false)
		r.Attempted, r.Failed = attempted, failed
		r.set("setup_s", 0.05)
		r.set("work_per_s", v)
		r.set("cpu_us_per_work", 1e6/v)
		r.set("peak_rss_mb", 90)
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestJudge(t *testing.T) {
	rate := metricDef{"rate", "1/s", higher, 0.15}
	cost := metricDef{"cost", "us", lower, 0.15}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01, m} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", rate, tight(100), tight(100), verdictOK},
		{"slower within bound", rate, tight(100), tight(90), verdictOK},
		{"slower beyond bound", rate, tight(100), tight(80), verdictRegressed},
		{"faster", rate, tight(100), tight(150), verdictOK},
		{"cost up beyond bound", cost, tight(10), tight(12), verdictRegressed},
		{"cost down", cost, tight(10), tight(5), verdictOK},
		{"too noisy to call", rate, []float64{60, 80, 100, 120, 140}, tight(80), verdictUnresolved},
		{"noisy but every run better", rate, []float64{60, 80, 100, 120, 140}, tight(200), verdictOK},
		{"single runs", rate, []float64{100}, []float64{70}, verdictRegressed},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	base := writeRuns(t, "a.jsonl", []float64{100, 101, 99, 100}, 10, 0)
	for _, c := range []struct {
		name  string
		other string
		code  int
		want  string
	}{
		{"same numbers", writeRuns(t, "b.jsonl", []float64{100, 100, 101, 99}, 10, 0), 0, verdictOK},
		{"slower", writeRuns(t, "c.jsonl", []float64{70, 71, 69, 70}, 10, 0), 1, verdictRegressed},
		{"more failures", writeRuns(t, "d.jsonl", []float64{100, 100, 101, 99}, 10, 1), 1, "failed share rose"},
	} {
		var out, errOut bytes.Buffer
		code := compareFiles(base, c.other, &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s%s", c.name, code, c.code, c.want, out.String(), errOut.String())
		}
	}

	var out, errOut bytes.Buffer
	if code := compareFiles(base, filepath.Join(t.TempDir(), "missing"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(base, bad, &out, &errOut); code != 2 {
		t.Errorf("malformed file: exit %d, want 2", code)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) gives [7.5, 15.0, 22.5].
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v, want 7.5, 22.5", q1, q3)
	}
}
