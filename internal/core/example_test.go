package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// Example bootstraps a 64-node network from scratch over a simulated
// network where only the (oracle) sampling service is available, then
// verifies every node holds a perfect leaf set and prefix table.
func Example() {
	const n = 64
	net := simnet.New(simnet.Config{Seed: 7})
	ids := id.Unique(n, 7)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, 7)

	cfg := core.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i, d := range descs {
		nd, err := core.NewNode(d, cfg, oracle)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		nodes[i] = nd
		// Start each node at a random offset within one Δ, as the
		// paper prescribes for the loosely synchronised start.
		if err := net.Attach(d.Addr, core.ProtoID, nd, cfg.Delta, int64(i)%cfg.Delta); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	net.Run(cfg.Delta * 15)

	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	perfect := 0
	for i, nd := range nodes {
		agg := tr.MeasureAll([]truth.Member{{Self: descs[i].ID, Leaf: nd.Leaf(), Table: nd.Table()}}, 1)
		if agg.LeafMissing == 0 && agg.PrefixMissing == 0 {
			perfect++
		}
	}
	fmt.Printf("perfect nodes after 15 cycles: %d/%d\n", perfect, n)
	// Output: perfect nodes after 15 cycles: 64/64
}
