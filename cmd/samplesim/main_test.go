package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestParseArgsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "1"},
		{"-fail", "1.5"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "nope"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSelfHealSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "selfheal", "-n", "300", "-cycles", "30"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
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

func TestStartSpreadSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "startspread", "-n", "400", "-cycles", "30"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "covered=400/400") {
		t.Errorf("incomplete coverage:\n%s", out)
	}
	if !strings.Contains(out, "p100,") {
		t.Error("missing percentile rows")
	}
}

func TestSizeEstSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "sizeest", "-n", "200", "-cycles", "40"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "probe_estimate") {
		t.Error("missing CSV header")
	}
}

// TestSamplesimGolden pins the sha256 of two full CLI outputs: the
// default self-healing run and the start-spread experiment. NEWSCAST's
// view order feeds every draw in them, so a change there moves the hash.
func TestSamplesimGolden(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "186d7bd34174f9907c75c100920f381b7d732d3d363fcb92f9d22e5824329a8b"},
		{[]string{"-experiment", "startspread"}, "b6ed9b3cf1b834fb7e97b165d6baeedd82ee992bcf20e8fe4f154dff5d76a7f6"},
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := run(c.args, &sb); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v: output sha256 = %s, want %s\n%s", c.args, got, c.want, sb.String())
		}
	}
}
