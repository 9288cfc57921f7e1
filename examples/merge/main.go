// Merge: the paper's motivating "liquid pools" scenario. Two organisations
// each run their own bootstrapped overlay; the pools are then merged and a
// single overlay is re-bootstrapped from scratch over the union, which is
// exactly how the architecture intends radical membership events to be
// handled: don't repair the old overlay — rebuild it, cheaply.
//
//	go run ./examples/merge
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
	poolSize = 500
	delta    = core.DefaultDelta
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "merge:", err)
		os.Exit(1)
	}
}

type pool struct {
	descs []peer.Descriptor
	nodes []*core.Node
}

// buildPool attaches a bootstrap layer for the given members over their
// own (pool-local) sampling service, under the given protocol id.
func buildPool(net *simnet.Network, descs []peer.Descriptor, pid simnet.ProtoID, seed int64) (*pool, error) {
	cfg := core.DefaultConfig()
	oracle := sampling.NewOracle(descs, seed)
	p := &pool{descs: descs}
	for i, d := range descs {
		nd, err := core.NewNode(d, cfg, oracle)
		if err != nil {
			return nil, err
		}
		p.nodes = append(p.nodes, nd)
		if err := net.Attach(d.Addr, pid, nd, delta, int64(i)%delta); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// measure measures every node against the ground truth of memberIDs.
func measure(nodes []*core.Node, memberIDs []id.ID) (truth.Aggregate, error) {
	cfg := core.DefaultConfig()
	tr, err := truth.New(memberIDs, cfg.B, cfg.K, cfg.C)
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
	fmt.Printf("%-28s leaf-missing %8.2e   prefix-missing %8.2e\n",
		label,
		float64(agg.LeafMissing)/float64(agg.LeafTotal),
		float64(agg.PrefixMissing)/float64(agg.PrefixTotal))
}

func run() error {
	net := simnet.New(simnet.Config{Seed: 7})
	ids := id.Unique(2*poolSize, 8)

	descsA := make([]peer.Descriptor, poolSize)
	descsB := make([]peer.Descriptor, poolSize)
	for i := 0; i < poolSize; i++ {
		descsA[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
		descsB[i] = peer.Descriptor{ID: ids[poolSize+i], Addr: net.AddNode()}
	}

	// Phase 1: two organisations bootstrap independent overlays.
	fmt.Printf("phase 1: two independent pools of %d nodes each\n", poolSize)
	poolA, err := buildPool(net, descsA, 10, 100)
	if err != nil {
		return err
	}
	poolB, err := buildPool(net, descsB, 11, 200)
	if err != nil {
		return err
	}
	net.Run(net.Now() + 30*delta)
	aggA, err := measure(poolA.nodes, memberIDs(descsA))
	if err != nil {
		return err
	}
	report("pool A after 30 cycles:", aggA)
	aggB, err := measure(poolB.nodes, memberIDs(descsB))
	if err != nil {
		return err
	}
	report("pool B after 30 cycles:", aggB)

	// Phase 2: merge. The sampling layer of the union becomes available
	// (in production: NEWSCAST views cross-pollinate within a few
	// cycles) and a fresh overlay is bootstrapped over all 2N nodes.
	fmt.Printf("\nphase 2: pools merge; re-bootstrap a single %d-node overlay from scratch\n", 2*poolSize)
	merged := append(append([]peer.Descriptor{}, descsA...), descsB...)
	poolAll, err := buildPool(net, merged, 12, 300)
	if err != nil {
		return err
	}
	allIDs := memberIDs(merged)
	start := net.Now()
	for cycle := 1; cycle <= 40; cycle++ {
		net.Run(start + int64(cycle)*delta)
		agg, err := measure(poolAll.nodes, allIDs)
		if err != nil {
			return err
		}
		if cycle%5 == 0 {
			report(fmt.Sprintf("merged, cycle %2d:", cycle), agg)
		}
		if agg.LeafMissing == 0 && agg.PrefixMissing == 0 {
			fmt.Printf("\nmerged overlay perfect at every node after %d cycles\n", cycle)
			return nil
		}
	}
	return fmt.Errorf("merged overlay did not converge within 40 cycles")
}

func memberIDs(descs []peer.Descriptor) []id.ID {
	out := make([]id.ID, len(descs))
	for i, d := range descs {
		out[i] = d.ID
	}
	return out
}
