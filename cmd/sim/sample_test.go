package main

import (
	"strings"
	"testing"
)

func TestSampleSelfHealSmall(t *testing.T) {
	out := mustRun(t, "selfheal", "-n", "300", "-cycles", "30")
	if !strings.Contains(out, "dead_view_fraction") {
		t.Error("missing CSV header")
	}
	// The last line's dead fraction must be (near) zero.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "e-") && !strings.Contains(last, "0.000000e+00") {
		t.Errorf("dead fraction did not decay: %q", last)
	}
}

func TestSampleStartSpreadSmall(t *testing.T) {
	out := mustRun(t, "startspread", "-n", "400", "-cycles", "30")
	if !strings.Contains(out, "covered=400/400") {
		t.Errorf("incomplete coverage:\n%s", out)
	}
	if !strings.Contains(out, "p100,") {
		t.Error("missing percentile rows")
	}
}

func TestSampleSizeEstSmall(t *testing.T) {
	if !strings.Contains(mustRun(t, "sizeest", "-n", "200", "-cycles", "40"), "probe_estimate") {
		t.Error("missing CSV header")
	}
}

// TestSamplesimGolden pins the sha256 of two full outputs: the default
// self-healing run and the start-spread experiment. NEWSCAST's view order
// feeds every draw in them, so a change there moves the hash.
func TestSamplesimGolden(t *testing.T) {
	for _, c := range []struct {
		campaign, want string
	}{
		{"selfheal", "186d7bd34174f9907c75c100920f381b7d732d3d363fcb92f9d22e5824329a8b"},
		{"startspread", "b6ed9b3cf1b834fb7e97b165d6baeedd82ee992bcf20e8fe4f154dff5d76a7f6"},
	} {
		out := mustRun(t, c.campaign)
		if got := sha256Of(out); got != c.want {
			t.Errorf("%s: output sha256 = %s, want %s\n%s", c.campaign, got, c.want, out)
		}
	}
}
