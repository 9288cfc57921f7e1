package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// wedgeSeed is the -seed value that makes a rerouted sock worker play
// dead: it answers READY and then nothing, not even EOF.
const wedgeSeed = "-424242"

// TestMain reroutes the test binary into a sock worker when a driver
// running inside a test re-execs it: os.Executable() is the test binary
// itself, so the SIM_WORKER marker tells a worker spawn from a normal
// `go test` invocation.
func TestMain(m *testing.M) {
	if os.Getenv("SIM_WORKER") == "1" {
		if slices.Contains(os.Args, wedgeSeed) {
			fmt.Println("READY")
			select {}
		}
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// mustRun runs one command line and returns its output; a non-zero exit
// fails the test.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var out, errs strings.Builder
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("sim %v: exit %d\n%s", args, code, errs.String())
	}
	return out.String()
}

// sha256Of is the hex sha256 of s.
func sha256Of(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestUsage: no campaign, or an unknown one, exits 2 with a usage that
// lists every row of the campaign table.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"none", nil},
		{"unknown", []string{"nope"}},
		{"unknown_with_flags", []string{"nope", "-n", "64"}},
		{"experiment_flag", []string{"-experiment", "fig3"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var errs strings.Builder
			if code := run(c.args, io.Discard, &errs); code != 2 {
				t.Errorf("%v: exit %d, want 2", c.args, code)
			}
			for _, cp := range campaigns {
				if !strings.Contains(errs.String(), "\n  "+cp.name+" ") {
					t.Errorf("%v: usage does not list %s:\n%s", c.args, cp.name, errs.String())
				}
			}
		})
	}
}

// flagRow is one command line of TestFlags: ok is checked when code is 0.
type flagRow struct {
	args []string
	code int
	ok   func(o *options) bool
}

// TestFlags is the command line's table, one subtest per plane: what a
// row's defaults and the flags resolve to, and each rejected command line
// with its exit status — 2 where the command line is checked, 1 where the
// campaign's own validation (Params.Validate, LiveParams.Validate, load's
// and selfheal's checks) rejects it before running anything.
func TestFlags(t *testing.T) {
	for _, g := range []struct {
		name string
		rows []flagRow
	}{
		{"boot_parse", []flagRow{
			{[]string{"fig4", "-n", "64, 128", "-seed", "7", "-runs", "2"}, 0, func(o *options) bool {
				return slices.Equal(o.sizes, sizes{64, 128}) && o.seed == 7 && o.runs == 2 && o.drop == 0.2 && o.cycles == 60
			}},
			{[]string{"fig3"}, 0, func(o *options) bool {
				return slices.Equal(o.sizes, sizes{1024, 4096, 16384}) && o.drop == 0 && o.cycles == 40
			}},
		}},
		{"boot_paper", []flagRow{
			{[]string{"fig3", "-paper"}, 0, func(o *options) bool { return slices.Equal(o.sizes, sizes{1 << 14, 1 << 16, 1 << 18}) }},
		}},
		{"boot_reject", []flagRow{
			{[]string{"fig3", "-n", "abc"}, 2, nil},
			{[]string{"fig3", "-sampler", "bogus"}, 2, nil},
			{[]string{"fig3", "-runs", "0"}, 2, nil},
			{[]string{"fig3", "-trials", "0"}, 2, nil},
			{[]string{"fig3", "-workers", "-1"}, 2, nil},
			{[]string{"scaling", "-trials", "4"}, 2, nil},
			{[]string{"fig3", "-trials", "2", "-runs", "2"}, 2, nil},
			{[]string{"fig3", "-bogus"}, 2, nil},
			{[]string{"fig3", "-shards", "-1"}, 1, nil},
		}},
		{"live", []flagRow{
			{[]string{"live"}, 0, func(o *options) bool {
				return o.n() == 1024 && o.trials == 4 && o.scenario == "churn" && o.cycles == 30
			}},
			{[]string{"live", "-trials", "0"}, 2, nil},
			{[]string{"live", "-workers", "-1"}, 2, nil},
			{[]string{"live", "-n", "64,128"}, 2, nil},
			{[]string{"live", "-n", "1", "-trials", "1", "-cycles", "2"}, 2, nil},
			{[]string{"live", "-scenario", "bogus"}, 1, nil},
		}},
		{"sock", []flagRow{
			{[]string{"sock", "-n", "64", "-procs", "3", "-scenario", "partition"}, 0, func(o *options) bool {
				p, err := o.sockParams()
				return err == nil && p.N == 64 && p.Sockets.Procs == 3 && p.Scenario.Name == "partition" && p.Period != 0
			}},
			{[]string{"sock", "-scenario", "meteor"}, 1, nil},
			{[]string{"sock", "-procs", "0"}, 1, nil},
			{[]string{"sock", "-paper"}, 2, nil},
		}},
		{"load", []flagRow{
			{[]string{"load", "-n", "1"}, 2, nil},
			{[]string{"load", "-cycles", "0"}, 1, nil},
			{[]string{"load", "-scenario", "alien"}, 1, nil},
			{[]string{"load", "-boot", "alien"}, 1, nil},
			{[]string{"load", "-churn", "1.5"}, 1, nil},
		}},
		{"sample", []flagRow{
			{[]string{"selfheal"}, 0, func(o *options) bool { return o.n() == 2000 && o.cycles == 60 && o.fail == 0.7 }},
			{[]string{"selfheal", "-n", "1"}, 2, nil},
			{[]string{"selfheal", "-fail", "1.5"}, 1, nil},
		}},
	} {
		t.Run(g.name, func(t *testing.T) {
			for _, c := range g.rows {
				if c.code != 0 {
					if code := run(c.args, io.Discard, io.Discard); code != c.code {
						t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
					}
					continue
				}
				o, _, err := parse(c.args, io.Discard)
				if err != nil {
					t.Errorf("%v: %v", c.args, err)
				} else if !c.ok(o) {
					t.Errorf("%v: parsed %+v", c.args, o)
				}
			}
		})
	}
}
