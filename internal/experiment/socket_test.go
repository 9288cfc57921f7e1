package experiment

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/livenet"
	"repro/internal/testenv"
)

// TestSocketScheduleExpansion pins the properties the multi-process
// driver depends on: the expansion is deterministic (two processes
// expanding independently from identically seeded streams agree on every
// victim), kills and respawns track a consistent alive set, and a latency
// event passes into the plan as it is (either link applies it).
func TestSocketScheduleExpansion(t *testing.T) {
	const n, cycles = 50, 30
	schedule := livenet.ScenarioChurn.Events(7, n, cycles)
	a, err := expandSchedule(schedule, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := expandSchedule(schedule, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Fatalf("two expansions differ or are empty:\n%v\n%v", a, b)
	}
	down := map[int]bool{}
	kills := 0
	for c := 0; c < cycles; c++ {
		for _, f := range a[c] {
			for _, addr := range f.addrs {
				switch f.Op {
				case livenet.OpKill:
					if down[addr] {
						t.Fatalf("cycle %d: host %d killed while already down", c, addr)
					}
					down[addr] = true
					kills++
				case livenet.OpRespawn:
					if !down[addr] {
						t.Fatalf("cycle %d: host %d respawned while up", c, addr)
					}
					delete(down, addr)
				}
			}
		}
	}
	if kills == 0 {
		t.Fatal("churn scenario expanded to zero kills")
	}
	if len(down) != 0 {
		t.Fatalf("%d hosts still down after the last respawn", len(down))
	}

	lat := []livenet.Event{{Cycle: 1, Op: livenet.OpSetLatency, Min: time.Millisecond, Max: time.Millisecond}}
	if plans, err := expandSchedule(lat, n, rand.New(rand.NewSource(1))); err != nil || len(plans[1]) != 1 || plans[1][0].Event != lat[0] {
		t.Fatalf("latency event: plans = %v, err = %v", plans, err)
	}
}

// TestSocketShardsDeriveSamePlan pins the sharding-invariance of the
// wall-clock engine's derivations: shard 0 and shard 1 of a two-process
// campaign and the single-process engine, built from the same seed, hold
// the identical fault plan — victims per cycle included — and that plan is
// the one the documented stream yields: seed+0x9e3779b9 drawing one attach
// offset per member, in member order, over all N members, and then the
// victim permutations in event order (bench/w_live.go mirrors the same
// stream). A shard that skipped the draws of the members it does not own
// would shift every victim.
func TestSocketShardsDeriveSamePlan(t *testing.T) {
	const n, cycles, seed = 40, 24, 11
	p := socketParams(n, cycles, 19430)
	p.Scenario = livenet.ScenarioChurn
	var plans []map[int][]fault
	for _, sockets := range []*Sockets{nil, {Procs: 2, Proc: 0, BasePort: 19430}, {Procs: 2, Proc: 1, BasePort: 19430}} {
		pc := p
		pc.Sockets = sockets
		e, err := openHostEngine(pc, seed)
		if err != nil {
			t.Fatal(err)
		}
		e.rt.Close()
		plans = append(plans, e.plans)
	}

	rng := rand.New(rand.NewSource(seed + 0x9e3779b9))
	for i := 0; i < n; i++ {
		rng.Int63n(int64(p.Period))
	}
	want, err := expandSchedule(p.Scenario.Events(seed, n, cycles), n, rng)
	if err != nil {
		t.Fatal(err)
	}
	victims := 0
	for _, fs := range want {
		for _, f := range fs {
			victims += len(f.addrs)
		}
	}
	if victims == 0 {
		t.Fatal("churn plan names no host; the comparison is vacuous")
	}
	for i, got := range plans {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("engine %d derived a different plan:\n got %v\nwant %v", i, got, want)
		}
	}
}

func socketParams(n, cycles, basePort int) LiveParams {
	return LiveParams{
		N:       n,
		Config:  core.DefaultConfig(),
		Period:  15 * time.Millisecond,
		Cycles:  cycles,
		Sockets: &Sockets{BasePort: basePort},
	}
}

// TestSocketShardedPartialSums runs a two-shard campaign inside one test
// process, stepping the shards in lockstep the way cmd/sim sock does across
// real processes, and checks the driver-side invariants: per-cycle global
// alive counts agree between shards, the summed partial aggregates form a
// complete measurement (totals cover every live node), and the summed
// traffic counters are conserved at quiescence.
func TestSocketShardedPartialSums(t *testing.T) {
	const n, cycles = 24, 6
	p := socketParams(n, cycles, 19400)
	p.Scenario = livenet.ScenarioChurn
	var trials []*LiveShard
	for proc := 0; proc < 2; proc++ {
		pc := p
		pc.Sockets = &Sockets{Procs: 2, Proc: proc, BasePort: 19400}
		tr, err := OpenLiveShard(pc, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trials = append(trials, tr)
	}
	rec := NewShardRecorder(p, 3)
	for cycle := 0; cycle < cycles; cycle++ {
		var parts []Partial
		for _, tr := range trials {
			part, err := tr.Step(cycle)
			if err != nil {
				t.Fatal(err)
			}
			if part.Agg.LeafTotal == 0 {
				t.Fatalf("cycle %d: a shard's measurement is empty", cycle)
			}
			parts = append(parts, part)
		}
		// Record fails when the shards disagree on the global alive count
		// or their local alive counts do not sum to it.
		if _, err := rec.Record(cycle, parts); err != nil {
			t.Fatal(err)
		}
		if pt := rec.Result().Final(); pt.Cycle != cycle || pt.Alive != parts[0].Alive || pt.LeafMissing < 0 || pt.LeafMissing > 1 {
			t.Fatalf("cycle %d: implausible point %+v", cycle, pt)
		}
		if _, err := NewShardRecorder(p, 3).Record(cycle, parts[:1]); err == nil {
			t.Fatalf("cycle %d: one shard of two accepted as the whole network", cycle)
		}
	}
	for _, tr := range trials {
		tr.eng.rt.StopTicks()
	}
	// Global quiescence: the summed counters hold still for 100 ms,
	// mirroring the sock campaign driver's DRAIN barrier.
	var prev host.Stats
	var since time.Time
	testenv.Await(t, "the sharded campaign to quiesce", func() bool {
		var cur host.Stats
		for _, tr := range trials {
			cur.Add(tr.Stats())
		}
		if cur != prev {
			prev, since = cur, time.Now()
		}
		return time.Since(since) >= 100*time.Millisecond
	})
	if prev.Sent != prev.Delivered+prev.Dropped+prev.Overflow {
		t.Fatalf("summed counters not conserved: %+v", prev)
	}
	if prev.Delivered == 0 {
		t.Fatal("no cross-shard deliveries")
	}
}

// TestLiveCrossEngineSocketEquivalence runs the identical protocol
// configuration under the livenet engine (goroutines, pointer handoff)
// and the socket engine (real loopback TCP through the wire codec) and
// asserts the convergence outcomes agree within the same tolerance the
// simnet/livenet comparison uses. Message interleaving differs — the
// kernel schedules the socket engine's deliveries — so this is the
// statistical-equivalence claim, the strongest reproducibility available
// once real sockets are involved.
func TestLiveCrossEngineSocketEquivalence(t *testing.T) {
	const n = 64
	const cycles = 40
	cfg := core.DefaultConfig()

	live, err := RunLive(LiveParams{
		N:              n,
		Config:         cfg,
		Period:         20 * time.Millisecond,
		Cycles:         cycles,
		MeasureWorkers: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := RunLive(LiveParams{
		N:              n,
		Config:         cfg,
		Period:         20 * time.Millisecond,
		Cycles:         cycles,
		Sockets:        &Sockets{BasePort: 19410},
		MeasureWorkers: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}

	liveF, sockF := live.Final(), sock.Final()
	t.Logf("livenet: converged_at=%d final=(%.4f, %.4f); socket: converged_at=%d final=(%.4f, %.4f) stats=%+v",
		live.ConvergedAt, liveF.LeafMissing, liveF.PrefixMissing,
		sock.ConvergedAt, sockF.LeafMissing, sockF.PrefixMissing, sock.Stats)

	if live.ConvergedAt < 0 {
		t.Errorf("livenet run did not converge in %d cycles", cycles)
	}
	if sock.ConvergedAt < 0 {
		t.Errorf("socket run did not converge in %d cycles", cycles)
	}
	const tol = 0.02
	if liveF.LeafMissing > tol || sockF.LeafMissing > tol {
		t.Errorf("final leaf missing disagrees with convergence: live=%e sock=%e (tol %v)",
			liveF.LeafMissing, sockF.LeafMissing, tol)
	}
	if liveF.PrefixMissing > tol || sockF.PrefixMissing > tol {
		t.Errorf("final prefix missing disagrees with convergence: live=%e sock=%e (tol %v)",
			liveF.PrefixMissing, sockF.PrefixMissing, tol)
	}
	if d := math.Abs(liveF.LeafMissing - sockF.LeafMissing); d > tol {
		t.Errorf("cross-engine leaf missing gap %e exceeds tolerance %v", d, tol)
	}
	if d := math.Abs(liveF.PrefixMissing - sockF.PrefixMissing); d > tol {
		t.Errorf("cross-engine prefix missing gap %e exceeds tolerance %v", d, tol)
	}
	if live.ConvergedAt >= 0 && sock.ConvergedAt >= 0 {
		if diff := sock.ConvergedAt - live.ConvergedAt; diff > 15 || diff < -15 {
			t.Errorf("cross-engine convergence cycles diverge: live=%d sock=%d", live.ConvergedAt, sock.ConvergedAt)
		}
	}
	// The socket engine drains to quiescence before its final snapshot,
	// so its counters obey the same conservation law as livenet's.
	if sock.Stats.Sent != sock.Stats.Delivered+sock.Stats.Dropped+sock.Stats.Overflow {
		t.Errorf("socket counters not conserved at quiescence: %+v", sock.Stats)
	}
	if sock.Stats.Sent == 0 {
		t.Error("socket engine recorded no traffic")
	}
}
