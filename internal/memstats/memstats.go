// Package memstats formats the process-memory accounting line the
// simulator CLIs emit under -memstats: live heap bytes (total and per
// node) after a forced collection, plus the process's peak resident set.
// It is the CLI-facing face of the memory plane — the number the
// BenchmarkNetworkFootprint regression gate tracks, available on any run
// without rebuilding the benchmark harness.
package memstats

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// HeapAlloc returns the live heap in bytes after a forced collection —
// retained state, not allocation slack. Harnesses call it while the
// network under measurement is still reachable; call it only at
// measurement points, never on a hot path.
func HeapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Line returns a space-separated key=value summary attributing heapBytes
// (a HeapAlloc figure captured while the n-node network was live) across
// the nodes, plus the process peak RSS when procfs exposes it.
func Line(n int, heapBytes uint64) string {
	perNode := uint64(0)
	if n > 0 {
		perNode = heapBytes / uint64(n)
	}
	s := fmt.Sprintf("heap_alloc_bytes=%d heap_bytes_per_node=%d", heapBytes, perNode)
	if rss, ok := PeakRSSKB(); ok {
		s += fmt.Sprintf(" peak_rss_kb=%d", rss)
	}
	return s
}

// CampaignLine returns the key=value summary of a multi-trial campaign
// whose live heap read baseline before the first trial and peak at its
// high-water mark. n is the per-trial network size and workers the number
// of trials live at once, so the above-baseline peak is attributed across
// the n*workers node instances that coexisted at the high-water mark.
func CampaignLine(n, workers int, baseline, peak uint64) string {
	perNode := uint64(0)
	if nodes := uint64(n) * uint64(workers); nodes > 0 {
		perNode = (peak - baseline) / nodes
	}
	s := fmt.Sprintf("heap_baseline_bytes=%d heap_peak_bytes=%d heap_bytes_per_node=%d", baseline, peak, perNode)
	if rss, ok := PeakRSSKB(); ok {
		s += fmt.Sprintf(" peak_rss_kb=%d", rss)
	}
	return s
}

// PeakRSSKB reads the process's resident-set high-water mark from
// /proc/self/status (VmHWM). Best-effort: ok is false on platforms or
// sandboxes without procfs, and callers simply omit the field.
func PeakRSSKB() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, found := strings.CutPrefix(line, "VmHWM:")
		if !found {
			continue
		}
		rest = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
