// Split: the inverse of the merge scenario. One organisation runs a single
// bootstrapped overlay over its pool; the pool is then split into two
// halves (e.g. resources sold off for a time slice) and each half
// jump-starts its own private overlay from scratch. The old overlay is
// simply abandoned — rebuilding is cheap enough that no repair protocol is
// needed, which is the architectural bet the paper makes.
//
//	go run ./examples/split
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

const (
	poolSize = 1000
	delta    = core.DefaultDelta
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "split:", err)
		os.Exit(1)
	}
}

func run() error {
	net := simnet.New(simnet.Config{Seed: 17})
	ids := id.Unique(poolSize, 18)
	descs := make([]peer.Descriptor, poolSize)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}

	// Phase 1: one overlay over the whole pool.
	whole, err := attachOverlay(net, descs, 10, 100)
	if err != nil {
		return err
	}
	net.Run(30 * delta)
	agg, err := measure(whole, memberIDs(descs))
	if err != nil {
		return err
	}
	report("whole pool after 30 cycles:", agg)

	// Phase 2: split the pool down the middle — the halves cannot even
	// talk to each other any more — and bootstrap one fresh overlay per
	// half. Note the old overlay instances are left running; they are
	// simply irrelevant to the new, smaller worlds.
	left, right := descs[:poolSize/2], descs[poolSize/2:]
	lAddrs := addrsOf(left)
	rAddrs := addrsOf(right)
	net.Partition(lAddrs, rAddrs)
	fmt.Printf("\npool split into two halves of %d nodes; bootstrapping private overlays\n", poolSize/2)

	lNodes, err := attachOverlay(net, left, 11, 200)
	if err != nil {
		return err
	}
	rNodes, err := attachOverlay(net, right, 12, 300)
	if err != nil {
		return err
	}
	start := net.Now()
	for cycle := 5; cycle <= 40; cycle += 5 {
		net.Run(start + int64(cycle)*delta)
		l, err := measure(lNodes, memberIDs(left))
		if err != nil {
			return err
		}
		r, err := measure(rNodes, memberIDs(right))
		if err != nil {
			return err
		}
		report(fmt.Sprintf("left  half, cycle %2d:", cycle), l)
		report(fmt.Sprintf("right half, cycle %2d:", cycle), r)
		if perfect(l) && perfect(r) {
			fmt.Printf("\nboth halves perfect after %d cycles\n", cycle)
			return nil
		}
	}
	return fmt.Errorf("halves did not converge within 40 cycles")
}

// attachOverlay starts a fresh bootstrap instance on every given node,
// with a pool-local sampling service.
func attachOverlay(net *simnet.Network, descs []peer.Descriptor, pid simnet.ProtoID, seed int64) ([]*core.Node, error) {
	cfg := core.DefaultConfig()
	oracle := sampling.NewOracle(descs, seed)
	nodes := make([]*core.Node, len(descs))
	for i, d := range descs {
		nd, err := core.NewNode(d, cfg, oracle)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, pid, nd, delta, int64(i)%delta); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// measure measures every node against the ground truth of ids.
func measure(nodes []*core.Node, ids []id.ID) (truth.Aggregate, error) {
	cfg := core.DefaultConfig()
	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		return truth.Aggregate{}, err
	}
	members := make([]truth.Member, len(nodes))
	for i, nd := range nodes {
		members[i] = truth.Member{Self: nd.Self().ID, Leaf: nd.Leaf(), Table: nd.Table()}
	}
	return tr.MeasureAll(members, 0), nil
}

func report(label string, agg truth.Aggregate) {
	fmt.Printf("%-24s leaf-missing %8.2e   prefix-missing %8.2e\n", label,
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
