package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// deterministicColumns strips everything wall-clock-dependent from a
// loadsim output: comment lines (the loadstats summary carries ops/sec)
// and the three lat_* columns of each data row. What remains is a pure
// function of the flags.
func deterministicColumns(t *testing.T, out string) string {
	t.Helper()
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, ",")
		if strings.HasPrefix(line, "cycle,") {
			if len(cols) != 17 {
				t.Fatalf("header has %d columns, want 17: %s", len(cols), line)
			}
		} else if len(cols) != 17 {
			t.Fatalf("data row has %d columns, want 17: %s", len(cols), line)
		}
		// Drop lat_p50_ns, lat_p99_ns, lat_p999_ns (columns 10-12).
		kept := append(append([]string{}, cols[:10]...), cols[13:]...)
		sb.WriteString(strings.Join(kept, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLoadSimGolden pins the deterministic CSV of a seeded churn run
// (sha256 over everything but the wall-clock latency columns) — any diff
// here means the serving plane's behaviour changed.
func TestLoadSimGolden(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "256", "-cycles", "5", "-ops", "2000", "-workers", "2",
		"-scenario", "churn", "-measure-sample", "64", "-seed", "42",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	det := deterministicColumns(t, sb.String())
	sum := sha256.Sum256([]byte(det))
	got := hex.EncodeToString(sum[:])
	const want = "a81636edbaeca4d3fb6c85493cbd930cd7c433f2ecc3ca115fd1c6da8ec6b609"
	if got != want {
		t.Errorf("deterministic CSV hash = %s, want %s\ncontent:\n%s", got, want, det)
	}
}

// TestLoadSimCrashGolden pins the deterministic CSV of a seeded crash
// run. Unlike churn, crash repairs no neighbours, so dead peers stay in
// the snapshots and every hop near them steps around dead entries.
func TestLoadSimCrashGolden(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "256", "-cycles", "5", "-ops", "2000", "-workers", "2",
		"-scenario", "crash", "-measure-sample", "64", "-seed", "42",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	det := deterministicColumns(t, sb.String())
	sum := sha256.Sum256([]byte(det))
	got := hex.EncodeToString(sum[:])
	const want = "8562dbc5d7fc1e9aa70b0cba6d0d0943c37f67e677505751ddcf6d03a5658e2d"
	if got != want {
		t.Errorf("deterministic CSV hash = %s, want %s\ncontent:\n%s", got, want, det)
	}
}

// TestLoadSimFlashCrowd pins the flash-crowd join scenario: a quarter of
// the population burst-joins at mid-run, the live column must jump by
// exactly the standby count, run() itself enforces the >= 0.99 success
// gate, and the deterministic CSV is golden-pinned like the churn run.
func TestLoadSimFlashCrowd(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "256", "-cycles", "6", "-ops", "2000", "-workers", "2",
		"-scenario", "flash", "-seed", "42",
	}, &sb)
	if err != nil {
		t.Fatal(err) // includes the success-rate gate tripping
	}
	out := sb.String()
	var before, after bool
	for _, line := range strings.Split(out, "\n") {
		cols := strings.Split(line, ",")
		if len(cols) < 2 || strings.HasPrefix(line, "#") || cols[0] == "cycle" {
			continue
		}
		switch cols[1] {
		case "256":
			before = true
		case "320":
			after = true
		default:
			t.Fatalf("unexpected live count %s (want 256 pre-burst, 320 post)", cols[1])
		}
	}
	if !before || !after {
		t.Fatalf("flash burst not visible in the live column:\n%s", out)
	}
	det := deterministicColumns(t, out)
	sum := sha256.Sum256([]byte(det))
	got := hex.EncodeToString(sum[:])
	const want = "dcd480386476afffe1b3b24785727dafae1b300a6eaad70d5ca0f30638fa3767"
	if got != want {
		t.Errorf("deterministic CSV hash = %s, want %s\ncontent:\n%s", got, want, det)
	}
}

// TestLoadSimRepeatable: a fixed config is exactly repeatable even with
// several concurrent workers — each worker's op stream is independently
// seeded and the merge is a commutative sum, so goroutine scheduling
// cannot leak into the deterministic columns. (Different worker counts
// legitimately draw different op streams; the invariant is per-config.)
func TestLoadSimRepeatable(t *testing.T) {
	outs := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		var sb strings.Builder
		err := run([]string{
			"-n", "128", "-cycles", "3", "-ops", "1500", "-workers", "3",
			"-scenario", "churn", "-seed", "7",
		}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, deterministicColumns(t, sb.String()))
	}
	if outs[0] != outs[1] {
		t.Errorf("two identical runs diverged:\n--- first\n%s\n--- second\n%s", outs[0], outs[1])
	}
}

// TestLoadSimScenarios: every scenario completes; churn keeps the
// acceptance success bar, the partition window shows degraded or failed
// cross-cut ops and then heals.
func TestLoadSimScenarios(t *testing.T) {
	for _, scen := range []string{"none", "crash", "partition"} {
		var sb strings.Builder
		err := run([]string{
			"-n", "128", "-cycles", "6", "-ops", "1000", "-workers", "2",
			"-scenario", scen, "-seed", "11",
		}, &sb)
		if err != nil {
			t.Fatalf("scenario %s: %v", scen, err)
		}
		if !strings.Contains(sb.String(), "# loadstats ops=6000") {
			t.Errorf("scenario %s: missing loadstats summary:\n%s", scen, sb.String())
		}
	}
}

// TestLoadSimSimnetBoot: the real-bootstrap path serves too.
func TestLoadSimSimnetBoot(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "64", "-cycles", "2", "-ops", "500", "-workers", "2",
		"-boot", "simnet", "-seed", "13",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "boot=simnet") {
		t.Errorf("missing boot mode header:\n%s", out)
	}
	if !strings.Contains(out, "success=1.0000") {
		t.Errorf("bootstrap-built cluster did not serve cleanly:\n%s", out)
	}
}

func TestLoadSimFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-n", "1"},
		{"-cycles", "0"},
		{"-scenario", "alien"},
		{"-boot", "alien"},
		{"-churn", "1.5"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
