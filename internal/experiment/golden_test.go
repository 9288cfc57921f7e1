package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

// TestGoldenTrace pins full runs to golden outcomes. A run is a pure
// function of its seed, so any change to event ordering, RNG consumption
// order, or message construction shows up here as a changed counter. Update the constants
// only for a change that intentionally alters the trace, and say so in the
// commit message.
func TestGoldenTrace(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		drop      float64
		converged int
		points    int
		stats     simnet.Stats
	}{
		{
			name: "n256", n: 256, drop: 0,
			converged: 6, points: 7,
			stats: simnet.Stats{Sent: 3094, Dropped: 0, Delivered: 3035, DeadDest: 0, WireUnits: 256546},
		},
		{
			name: "n256drop", n: 256, drop: 0.2,
			converged: 9, points: 10,
			stats: simnet.Stats{Sent: 4182, Dropped: 833, Delivered: 3314, DeadDest: 0, WireUnits: 347850},
		},
		{
			name: "n1024", n: 1024, drop: 0,
			converged: 10, points: 11,
			stats: simnet.Stats{Sent: 20571, Dropped: 0, Delivered: 20376, DeadDest: 0, WireUnits: 2312241},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Params{
				N:         tc.n,
				Seed:      42,
				Config:    core.DefaultConfig(),
				Drop:      tc.drop,
				MaxCycles: 80,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ConvergedAt != tc.converged {
				t.Errorf("ConvergedAt = %d, want %d", res.ConvergedAt, tc.converged)
			}
			if len(res.Points) != tc.points {
				t.Errorf("len(Points) = %d, want %d", len(res.Points), tc.points)
			}
			if res.Stats != tc.stats {
				t.Errorf("Stats = %+v, want %+v", res.Stats, tc.stats)
			}
		})
	}
}

// TestGoldenTraceShardInvariance pins the sharded engine's contract at the
// harness level. Shards=1 must be byte-identical to the default (Shards=0)
// run — same CSV hash TestGoldenCSVByteIdentical pins — because a single
// shard runs the very same sequential engine. Every Shards>1 value must
// produce one common trace: the engine replays the sequential order, and
// the per-node oracle streams are shard-count invariant. That common trace
// differs from the sequential one only because per-node streams replace
// the shared oracle stream, whose draw order only exists under sequential
// dispatch; both sides converging within a couple of cycles of each other
// ties the two families together behaviorally.
func TestGoldenTraceShardInvariance(t *testing.T) {
	run := func(shards int) (*Result, string) {
		res, err := Run(Params{
			N:         1024,
			Seed:      42,
			Config:    core.DefaultConfig(),
			MaxCycles: 80,
			Shards:    shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return res, hex.EncodeToString(sum[:])
	}

	// Shards=1 is the sequential engine verbatim: the pre-PR golden pin.
	const seqSum = "04c14d730526732228106e8993ebc85b9bb28dc85997f6909424e8ab58e01b82"
	seq, sum := run(1)
	if sum != seqSum {
		t.Errorf("shards=1 CSV sha256 = %s, want pinned sequential %s", sum, seqSum)
	}

	ref, refSum := run(2)
	for _, shards := range []int{4} {
		res, sum := run(shards)
		if sum != refSum {
			t.Errorf("shards=%d CSV sha256 = %s, want %s (shards=2)", shards, sum, refSum)
		}
		if res.Stats != ref.Stats {
			t.Errorf("shards=%d Stats = %+v, want %+v (shards=2)", shards, res.Stats, ref.Stats)
		}
		if res.ConvergedAt != ref.ConvergedAt {
			t.Errorf("shards=%d ConvergedAt = %d, want %d (shards=2)", shards, res.ConvergedAt, ref.ConvergedAt)
		}
	}
	// Different RNG streams shift convergence by a cycle or so; anything
	// beyond that means the parallel engine changed the protocol, not just
	// the randomness.
	if d := ref.ConvergedAt - seq.ConvergedAt; ref.ConvergedAt < 0 || d > 2 || d < -2 {
		t.Errorf("sharded runs converge at %d, sequential at %d; expected within 2 cycles",
			ref.ConvergedAt, seq.ConvergedAt)
	}
}

// TestGoldenCSVByteIdentical pins the full-measurement CSV output: with
// MeasureSample off, every byte of the emitted series — header,
// formatting, and all measured values — must stay identical. This is the
// proof that sampling is purely opt-in: neither the measurement plane nor
// the oracle's snapshot/stream layer may perturb a default run.
func TestGoldenCSVByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		bytes int
		sum   string
	}{
		{name: "n256", n: 256, bytes: 515,
			sum: "f1632d965ea0314ee90206209e14e9fa916e745146e7031cea0d6b6647ec4987"},
		{name: "n1024", n: 1024, bytes: 783,
			sum: "04c14d730526732228106e8993ebc85b9bb28dc85997f6909424e8ab58e01b82"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Params{
				N:         tc.n,
				Seed:      42,
				Config:    core.DefaultConfig(),
				MaxCycles: 80,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != tc.bytes {
				t.Errorf("CSV is %d bytes, want %d", buf.Len(), tc.bytes)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sum {
				t.Errorf("CSV sha256 = %s, want %s\n%s", got, tc.sum, buf.String())
			}
		})
	}
}
