package memstats

import (
	"strings"
	"testing"
)

func TestLineShape(t *testing.T) {
	if got := HeapAlloc(); got == 0 {
		t.Error("HeapAlloc returned 0 for a running process")
	}
	line := Line(100, 4096)
	if !strings.Contains(line, "heap_alloc_bytes=4096") {
		t.Errorf("missing heap_alloc_bytes field: %q", line)
	}
	if !strings.Contains(line, "heap_bytes_per_node=40") {
		t.Errorf("missing heap_bytes_per_node field: %q", line)
	}
	for _, f := range strings.Fields(line) {
		if !strings.Contains(f, "=") {
			t.Errorf("field %q is not key=value", f)
		}
	}
}

func TestLineZeroNodes(t *testing.T) {
	if line := Line(0, 4096); !strings.Contains(line, "heap_bytes_per_node=0") {
		t.Errorf("n=0 should report 0 bytes/node, got %q", line)
	}
}

func TestCampaignLineShape(t *testing.T) {
	line := CampaignLine(1024, 2, 1<<20, 9<<20)
	for _, want := range []string{
		"heap_baseline_bytes=1048576",
		"heap_peak_bytes=9437184",
		// (9MiB - 1MiB) / (1024 nodes * 2 workers) = 4096
		"heap_bytes_per_node=4096",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("campaign line %q missing %q", line, want)
		}
	}
	for _, f := range strings.Fields(line) {
		if !strings.Contains(f, "=") {
			t.Errorf("field %q is not key=value", f)
		}
	}
	if zero := CampaignLine(0, 0, 1<<20, 9<<20); !strings.Contains(zero, "heap_bytes_per_node=0") {
		t.Errorf("zero nodes should report 0 bytes/node, got %q", zero)
	}
}
