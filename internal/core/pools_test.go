package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// TestLiquidPools is the paper's motivating "liquid pools" scenario: when
// pools of resources merge or split, the overlay over the new pool is not
// repaired but re-bootstrapped from scratch. Each subtest writes its
// convergence report and pins its sha256, so any change to what the
// bootstrap layer builds or what truth measures shows up here. The report
// prints ratios to three digits, and an overlay that is already perfect
// prints zeros whatever its sampler drew (merge's pool B), so each
// subtest also pins the network's traffic counters, which carry every
// message's size.
func TestLiquidPools(t *testing.T) {
	t.Run("merge", func(t *testing.T) {
		// Two organisations each bootstrap their own overlay; the pools
		// then merge and one overlay is bootstrapped over the union.
		const poolSize = 500
		var out bytes.Buffer
		net := simnet.New(simnet.Config{Seed: 7})
		ids := id.Unique(2*poolSize, 8)
		descsA := make([]peer.Descriptor, poolSize)
		descsB := make([]peer.Descriptor, poolSize)
		for i := 0; i < poolSize; i++ {
			descsA[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
			descsB[i] = peer.Descriptor{ID: ids[poolSize+i], Addr: net.AddNode()}
		}

		fmt.Fprintf(&out, "phase 1: two independent pools of %d nodes each\n", poolSize)
		poolA := attachPool(t, net, descsA, 10, 100)
		poolB := attachPool(t, net, descsB, 11, 200)
		net.Run(net.Now() + 30*delta)
		report(&out, 28, "pool A after 30 cycles:", measurePool(t, poolA, memberIDs(descsA)))
		report(&out, 28, "pool B after 30 cycles:", measurePool(t, poolB, memberIDs(descsB)))

		fmt.Fprintf(&out, "\nphase 2: pools merge; re-bootstrap a single %d-node overlay from scratch\n", 2*poolSize)
		merged := append(append([]peer.Descriptor{}, descsA...), descsB...)
		poolAll := attachPool(t, net, merged, 12, 300)
		allIDs := memberIDs(merged)
		start := net.Now()
		for cycle := 1; ; cycle++ {
			if cycle > 40 {
				t.Fatalf("merged overlay did not converge within 40 cycles\n%s", out.String())
			}
			net.Run(start + int64(cycle)*delta)
			agg := measurePool(t, poolAll, allIDs)
			if cycle%5 == 0 {
				report(&out, 28, fmt.Sprintf("merged, cycle %2d:", cycle), agg)
			}
			if perfect(agg) {
				fmt.Fprintf(&out, "\nmerged overlay perfect at every node after %d cycles\n", cycle)
				break
			}
		}
		checkFixedPoint(t, out.Bytes(), "41c6f2b5975cb59ec08bb0b5b88d1a8d914f78a8b0514b38e103cc426b5add94",
			net.Stats(), simnet.Stats{Sent: 92200, Delivered: 91800, WireUnits: 9527613})
	})

	t.Run("split", func(t *testing.T) {
		// One overlay over the whole pool; the pool is then partitioned
		// into halves and each half bootstraps its own overlay. The old
		// instances keep running, irrelevant to the new, smaller worlds.
		const poolSize = 1000
		var out bytes.Buffer
		net := simnet.New(simnet.Config{Seed: 17})
		ids := id.Unique(poolSize, 18)
		descs := make([]peer.Descriptor, poolSize)
		for i := range descs {
			descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
		}

		whole := attachPool(t, net, descs, 10, 100)
		net.Run(30 * delta)
		report(&out, 24, "whole pool after 30 cycles:", measurePool(t, whole, memberIDs(descs)))

		left, right := descs[:poolSize/2], descs[poolSize/2:]
		net.Partition(addrsOf(left), addrsOf(right))
		fmt.Fprintf(&out, "\npool split into two halves of %d nodes; bootstrapping private overlays\n", poolSize/2)
		lNodes := attachPool(t, net, left, 11, 200)
		rNodes := attachPool(t, net, right, 12, 300)
		start := net.Now()
		for cycle := 5; ; cycle += 5 {
			if cycle > 40 {
				t.Fatalf("halves did not converge within 40 cycles\n%s", out.String())
			}
			net.Run(start + int64(cycle)*delta)
			l := measurePool(t, lNodes, memberIDs(left))
			r := measurePool(t, rNodes, memberIDs(right))
			report(&out, 24, fmt.Sprintf("left  half, cycle %2d:", cycle), l)
			report(&out, 24, fmt.Sprintf("right half, cycle %2d:", cycle), r)
			if perfect(l) && perfect(r) {
				fmt.Fprintf(&out, "\nboth halves perfect after %d cycles\n", cycle)
				break
			}
		}
		checkFixedPoint(t, out.Bytes(), "1935969333d15889b823d4d1fb5bbea7b45e028d3f000a1d47638ca84b7c9a2c",
			net.Stats(), simnet.Stats{Sent: 91169, Dropped: 5133, Delivered: 85731, WireUnits: 10478041})
	})
}

const delta = core.DefaultDelta

// attachPool starts a fresh bootstrap instance under protocol pid on every
// given node, sampling from a pool-local oracle.
func attachPool(t *testing.T, net *simnet.Network, descs []peer.Descriptor, pid simnet.ProtoID, seed int64) []*core.Node {
	t.Helper()
	cfg := core.DefaultConfig()
	oracle := sampling.NewOracle(descs, seed)
	nodes := make([]*core.Node, len(descs))
	for i, d := range descs {
		nd, err := core.NewNode(d, cfg, oracle)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, pid, nd, delta, int64(i)%delta); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// measurePool measures every node against the ground truth of ids.
func measurePool(t *testing.T, nodes []*core.Node, ids []id.ID) truth.Aggregate {
	t.Helper()
	cfg := core.DefaultConfig()
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]truth.Member, len(nodes))
	for i, nd := range nodes {
		members[i] = truth.Member{Self: nd.Self().ID, Leaf: nd.Leaf(), Table: nd.Table()}
	}
	return tr.MeasureAll(members, 0)
}

// report writes one line of missing-entry ratios, label padded to width.
func report(w io.Writer, width int, label string, agg truth.Aggregate) {
	fmt.Fprintf(w, "%-*s leaf-missing %8.2e   prefix-missing %8.2e\n", width, label,
		float64(agg.LeafMissing)/float64(agg.LeafTotal), float64(agg.PrefixMissing)/float64(agg.PrefixTotal))
}

func perfect(agg truth.Aggregate) bool { return agg.LeafMissing == 0 && agg.PrefixMissing == 0 }

func memberIDs(descs []peer.Descriptor) []id.ID {
	out := make([]id.ID, len(descs))
	for i, d := range descs {
		out[i] = d.ID
	}
	return out
}

func addrsOf(descs []peer.Descriptor) []peer.Addr {
	out := make([]peer.Addr, len(descs))
	for i, d := range descs {
		out[i] = d.Addr
	}
	return out
}

func checkFixedPoint(t *testing.T, out []byte, wantSum string, stats, wantStats simnet.Stats) {
	t.Helper()
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		t.Errorf("report sha256 = %s, want %s\n%s", got, wantSum, out)
	}
	if stats != wantStats {
		t.Errorf("traffic = %+v, want %+v", stats, wantStats)
	}
}
