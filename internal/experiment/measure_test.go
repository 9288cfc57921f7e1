package experiment

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/truth"
)

// TestMeasureWorkersInvariance: the per-cycle measurement is sharded
// across MeasureWorkers goroutines but aggregates integer counts, so the
// full result — every Point, bit for bit — must be identical for any
// worker count, and identical to the serial measurement.
func TestMeasureWorkersInvariance(t *testing.T) {
	base := Params{
		N:         192,
		Seed:      77,
		Config:    core.DefaultConfig(),
		Drop:      0.1,
		MaxCycles: 12,
		Churn:     Churn{Rate: 0.02, StartCycle: 1, StopCycle: 6},

		KeepRunningAfterPerfect: true,
	}
	var ref *Result
	for _, workers := range []int{1, 2, 3, 8} {
		p := base
		p.MeasureWorkers = workers
		res, err := Run(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Points, ref.Points) {
			t.Errorf("workers=%d: Points diverge from workers=1", workers)
		}
		if res.ConvergedAt != ref.ConvergedAt || res.Stats != ref.Stats {
			t.Errorf("workers=%d: ConvergedAt/Stats diverge: %d/%+v vs %d/%+v",
				workers, res.ConvergedAt, res.Stats, ref.ConvergedAt, ref.Stats)
		}
	}
}

// TestChurnExplicitIDCollisionFree: explicit initial IDs chosen to be
// exactly the IDs the churn generator would draw next used to collide —
// the oracle then rejected the duplicate mid-run and the trial died.
// Reserving the explicit IDs in the generator makes churn allocation
// collision-free by construction.
func TestChurnExplicitIDCollisionFree(t *testing.T) {
	const n, seed = 16, int64(5)
	// The runner's generator is seeded with Seed+0x7f4a7c15 and consumes
	// n draws during setup; churn then draws n+1, n+2, ... Handing those
	// very draws in as the explicit membership forces the collision.
	all := id.Unique(2*n, seed+0x7f4a7c15)
	res, err := Run(Params{
		N:         n,
		Seed:      seed,
		IDs:       all[n : 2*n],
		Config:    core.DefaultConfig(),
		MaxCycles: 10,
		Churn:     Churn{Rate: 0.2, StartCycle: 0, StopCycle: 8},

		KeepRunningAfterPerfect: true,
	})
	if err != nil {
		t.Fatalf("churn with adversarial explicit IDs failed: %v", err)
	}
	if len(res.Points) != 10 {
		t.Errorf("run truncated: %d points, want 10", len(res.Points))
	}
	// Every measured cycle must still see the full population.
	for _, pt := range res.Points {
		if pt.Alive != n {
			t.Errorf("cycle %d: alive = %d, want %d", pt.Cycle, pt.Alive, n)
		}
	}
}

// TestGeneratorReserve pins the collision-free contract at the source.
func TestGeneratorReserve(t *testing.T) {
	first := id.NewGenerator(9).Next()
	g := id.NewGenerator(9)
	g.Reserve(first)
	for i := 0; i < 100; i++ {
		if g.Next() == first {
			t.Fatal("generator returned a reserved ID")
		}
	}
}

// TestMeasureCacheMatchesFresh holds the trial's long-lived oracle — whose
// per-node measurement cache carries counts across calls and cycles — to
// oracles built from scratch for every measurement, after every cycle of
// trials that mutate node state every way there is: simnet with churn
// (structures replaced, membership patched), eviction (LeafSet.Remove and
// PrefixTable.Remove), drops and NEWSCAST, then released structures; and
// livenet kill/respawn, where a node keeps its ID and its structures
// across the membership change. A mutation the cache key misses shows up
// as a stale count.
func TestMeasureCacheMatchesFresh(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.EvictAfterMisses = 2
		p := Params{
			N: 160, Seed: 23, Config: cfg, Drop: 0.1, MaxCycles: 24,
			Churn:   Churn{Rate: 0.03, StartCycle: 2, StopCycle: 8},
			Sampler: SamplerNewscast, WarmupCycles: 3,
		}
		tr, _, err := newSimTrial(p)
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < p.MaxCycles; cycle++ {
			if _, _, err := tr.observe(cycle); err != nil {
				t.Fatal(err)
			}
			checkCacheMatchesFresh(t, tr, cfg, cycle)
			tr.eng.thaw()
		}
		// Structures released under a still-current membership measure
		// as empty, not as their last cached counts: leaf sets of one
		// quarter of the members, prefix tables of another.
		q := len(tr.measBuf) / 4
		for i, m := range tr.measBuf[:2*q] {
			if i < q {
				m.Leaf.Release()
			} else {
				m.Table.Release()
			}
		}
		checkCacheMatchesFresh(t, tr, cfg, p.MaxCycles)
	})
	t.Run("livenet", func(t *testing.T) {
		p := quickLiveParams(48, 16)
		p.Period = 10 * time.Millisecond
		p.Scenario = livenet.ScenarioChurn
		tr, eng, err := newLiveTrial(p, 13)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.rt.Close()
		for cycle := 0; cycle < p.Cycles; cycle++ {
			if _, _, err := tr.observe(cycle); err != nil {
				t.Fatal(err)
			}
			checkCacheMatchesFresh(t, tr, p.Config, cycle)
			tr.eng.thaw()
		}
		if eng.killed == 0 || eng.respawned == 0 {
			t.Fatalf("killed %d, respawned %d: the schedule exercised no kill/respawn", eng.killed, eng.respawned)
		}
	})
}

// checkCacheMatchesFresh compares the trial oracle's MeasureAll and
// MeasureSampleConf over the frozen members, at one and two workers,
// with those of a new oracle for the same membership.
func checkCacheMatchesFresh(t *testing.T, tr *trial, cfg core.Config, cycle int) {
	t.Helper()
	ids := make([]id.ID, len(tr.measBuf))
	for i, m := range tr.measBuf {
		ids[i] = m.Self
	}
	fresh := func() *truth.Truth {
		f, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	sample := len(ids) / 4
	for _, workers := range []int{1, 2} {
		if got, want := tr.tr.MeasureAll(tr.measBuf, workers), fresh().MeasureAll(tr.measBuf, workers); got != want {
			t.Fatalf("cycle %d, workers %d: MeasureAll %+v, fresh oracle %+v", cycle, workers, got, want)
		}
		seed := int64(cycle*2 + workers)
		got := tr.tr.MeasureSampleConf(tr.measBuf, sample, 0.95, rand.New(rand.NewSource(seed)), workers)
		want := fresh().MeasureSampleConf(tr.measBuf, sample, 0.95, rand.New(rand.NewSource(seed)), workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d, workers %d: MeasureSampleConf %+v, fresh oracle %+v", cycle, workers, got, want)
		}
	}
}
