package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/id"
	"repro/internal/load"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/truth"
)

// world is the simulated deployment: the DHT cluster plus the bookkeeping
// the measurement plane and scenarios need.
type world struct {
	cluster *dht.Cluster
	descs   []peer.Descriptor
	members []truth.Member // index-aligned with descs
	alive   []bool
	nLive   int
	oracle  *truth.Truth
}

// buildPerfect constructs the cluster of total nodes on perfect routing
// tables — the post-bootstrap fixed point, without simulating the
// bootstrap itself.
func buildPerfect(o *options, total int) (*world, error) {
	ids := id.Unique(total, o.seed)
	descs := make([]peer.Descriptor, total)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	nodes := make([]*dht.Node, total)
	members := make([]truth.Member, total)
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, o.cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, o.cfg.B, o.cfg.K)
		pt.AddAll(descs)
		nodes[i] = dht.NewNode(pastry.New(d, ls, pt, o.cfg.B))
		members[i] = truth.Member{Self: d.ID, Leaf: ls, Table: pt}
	}
	return newWorld(o, descs, nodes, members)
}

// buildSimnet runs the paper's bootstrap protocol on the simulated
// network and promotes the converged structures into the DHT.
func buildSimnet(o *options, total int) (*world, error) {
	net, descs := simnetWorld(total, o.seed)
	oracle := sampling.NewOracle(descs, o.seed+2)
	boot := make([]*core.Node, total)
	for i, d := range descs {
		nd, err := core.NewNode(d, o.cfg, oracle)
		if err != nil {
			return nil, err
		}
		boot[i] = nd
		if err := net.Attach(d.Addr, core.ProtoID, nd, o.cfg.Delta, int64(i)%o.cfg.Delta); err != nil {
			return nil, err
		}
	}
	net.Run(o.cfg.Delta * 30)
	nodes := make([]*dht.Node, total)
	members := make([]truth.Member, total)
	for i, b := range boot {
		nodes[i] = dht.NewNode(pastry.FromBootstrap(b))
		members[i] = truth.Member{Self: descs[i].ID, Leaf: b.Leaf(), Table: b.Table()}
	}
	return newWorld(o, descs, nodes, members)
}

func newWorld(o *options, descs []peer.Descriptor, nodes []*dht.Node, members []truth.Member) (*world, error) {
	ids := make([]id.ID, len(descs))
	alive := make([]bool, len(descs))
	for i, d := range descs {
		ids[i], alive[i] = d.ID, true
	}
	oracle, err := truth.New(ids, o.cfg.B, o.cfg.K, o.cfg.C)
	if err != nil {
		return nil, err
	}
	return &world{
		cluster: dht.NewCluster(nodes, o.replicas),
		descs:   descs,
		members: members,
		alive:   alive,
		nLive:   len(descs),
		oracle:  oracle,
	}, nil
}

// remove kills one node everywhere: cluster (repair + migration) and the
// measurement oracle.
func (w *world) remove(i int) error {
	if !w.alive[i] {
		return nil
	}
	w.alive[i] = false
	w.nLive--
	w.cluster.Remove(w.descs[i].Addr)
	return w.oracle.Remove(w.descs[i].ID)
}

// join revives one standby everywhere: cluster (adoption + migration) and
// the measurement oracle.
func (w *world) join(i int) error {
	if w.alive[i] {
		return nil
	}
	w.alive[i] = true
	w.nLive++
	w.cluster.Join(w.descs[i].Addr)
	return w.oracle.Add(w.descs[i].ID)
}

// liveMembers appends the truth.Members of live nodes to dst.
func (w *world) liveMembers(dst []truth.Member) []truth.Member {
	for i, m := range w.members {
		if w.alive[i] {
			dst = append(dst, m)
		}
	}
	return dst
}

// applyScenario mutates the world before a cycle's load runs. Deterministic
// in (options, cycle, rng state). The standbys are the nodes past -n.
func applyScenario(o *options, w *world, cycle int, rng *rand.Rand) error {
	switch o.scenario {
	case "churn":
		// Steady churn from cycle 1 on: each cycle kills churn of the
		// live population, one node at a time (each departure repairs
		// before the next, the steady-state regime).
		if cycle == 0 {
			return nil
		}
		kill := int(float64(w.nLive) * o.churn)
		if kill < 1 {
			kill = 1
		}
		for k := 0; k < kill && w.nLive > 2; k++ {
			vi := rng.Intn(len(w.descs))
			for !w.alive[vi] {
				vi = (vi + 1) % len(w.descs)
			}
			if err := w.remove(vi); err != nil {
				return err
			}
		}
	case "crash":
		// One mass failure at mid-run: 10% of the population at once.
		if cycle != o.cycles/2 {
			return nil
		}
		kill := w.nLive / 10
		for k := 0; k < kill && w.nLive > 2; k++ {
			vi := rng.Intn(len(w.descs))
			for !w.alive[vi] {
				vi = (vi + 1) % len(w.descs)
			}
			if err := w.remove(vi); err != nil {
				return err
			}
		}
	case "flash":
		// The flash crowd: every standby joins at once at mid-run. Joins
		// are applied in index order, one Join (adopt + migrate) at a
		// time, so the run is deterministic.
		if cycle != o.cycles/2 {
			return nil
		}
		for i := o.n(); i < len(w.descs); i++ {
			if err := w.join(i); err != nil {
				return err
			}
		}
	case "partition":
		// Split the address space in half for the middle third of the
		// run, then heal.
		lo, hi := o.cycles/3, 2*o.cycles/3
		half := peer.Addr(o.n() / 2)
		if cycle == lo {
			w.cluster.SetPartition(func(a, b peer.Addr) bool {
				return (a < half) != (b < half)
			})
		}
		if cycle == hi {
			w.cluster.SetPartition(nil)
		}
	}
	return nil
}

// runLoad drives the serving plane: a deterministic closed-loop get/put
// workload over a DHT built on the bootstrapped overlay, while a churn,
// crash, partition or flash-crowd scenario runs. Per cycle it emits one
// CSV row with op outcomes, routed-hop and latency percentiles, and the
// overlay-quality estimate from the sampled-estimator machinery; at the
// end it prints a `# loadstats` summary (ops/sec, per-op allocs). Under
// churn and flash it fails below 99% op success.
func runLoad(o *options, out io.Writer) error {
	n, standby := o.n(), 0
	switch o.scenario {
	case "none", "churn", "crash", "partition":
	case "flash":
		// A quarter of the population sits out as standbys and burst-joins
		// at mid-run — the flash-crowd case the paper's joining analysis
		// targets.
		standby = max(n/4, 1)
	default:
		return fmt.Errorf("unknown scenario %q", o.scenario)
	}
	build := buildPerfect
	switch o.boot {
	case "perfect":
	case "simnet":
		build = buildSimnet
	default:
		return fmt.Errorf("unknown boot mode %q", o.boot)
	}
	if o.cycles < 1 {
		return fmt.Errorf("-cycles must be at least 1, got %d", o.cycles)
	}
	if o.churn < 0 || o.churn >= 1 {
		return fmt.Errorf("-churn must be in [0, 1), got %v", o.churn)
	}
	w, err := build(o, n+standby)
	if err != nil {
		return err
	}
	// Standbys sit out until the flash crowd: parked before the preload so
	// the working set lives entirely on the initial population.
	for i := n; i < n+standby; i++ {
		if err := w.remove(i); err != nil {
			return err
		}
	}
	gen := load.New(w.cluster, load.Config{
		Workers:   o.clients,
		KeySpace:  o.keys,
		GetRatio:  o.get,
		ZipfS:     o.zipf,
		ValueSize: o.valSize,
		Seed:      o.seed + 3,
	})
	full := gen.Preload()

	fmt.Fprintf(out, "# loadsim n=%d boot=%s scenario=%s workers=%d ops/cycle=%d keys=%d get=%.2f zipf=%.2f replicas=%d seed=%d measure_sample=%d\n",
		n, o.boot, o.scenario, o.clients, o.ops, o.keys, o.get, o.zipf, o.replicas, o.seed, o.measureSample)
	fmt.Fprintf(out, "# preload keys=%d full_replication=%d\n", o.keys, full)
	fmt.Fprintln(out, "cycle,live,ops,ok,notfound,noroute,degraded,hop_p50,hop_p99,hop_mean,lat_p50_ns,lat_p99_ns,lat_p999_ns,leaf_missing,leaf_ci,prefix_missing,prefix_ci")

	scenRng := rand.New(rand.NewSource(o.seed + 4))
	measRng := rand.New(rand.NewSource(o.seed + 5))
	var members []truth.Member
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()

	for cycle := 0; cycle < o.cycles; cycle++ {
		if err := applyScenario(o, w, cycle, scenRng); err != nil {
			return err
		}
		st := gen.RunCycle(o.ops)

		members = w.liveMembers(members[:0])
		sa := w.oracle.MeasureSampleConf(members, o.measureSample, 0.95, measRng, o.measureWorkers)

		fmt.Fprintf(out, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%d,%d,%e,%e,%e,%e\n",
			cycle, w.nLive, st.Ops, st.OK, st.NotFound, st.NoRoute, st.Degraded,
			st.Hops.Quantile(0.5), st.Hops.Quantile(0.99), st.Hops.Mean(),
			st.Lat.Quantile(0.5), st.Lat.Quantile(0.99), st.Lat.Quantile(0.999),
			sa.LeafMissing.Mean, sa.LeafMissing.CI, sa.PrefixMissing.Mean, sa.PrefixMissing.CI)
	}

	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)
	tot := gen.Totals()
	allocsPerOp := 0.0
	if tot.Ops > 0 {
		allocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(tot.Ops)
	}
	fmt.Fprintf(out, "# loadstats ops=%d ok=%d success=%.4f ops_per_sec=%.0f allocs_per_op=%.2f elapsed=%s\n",
		tot.Ops, tot.OK, tot.SuccessRate(),
		float64(tot.Ops)/elapsed.Seconds(), allocsPerOp, elapsed.Round(time.Millisecond))
	if (o.scenario == "churn" || o.scenario == "flash") && tot.SuccessRate() < 0.99 {
		return fmt.Errorf("success rate %.4f under %s, want >= 0.99", tot.SuccessRate(), o.scenario)
	}
	return nil
}
