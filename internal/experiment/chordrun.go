package experiment

import (
	"math/rand"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// ChordParams configures a run of the Chord bootstrap baseline (ablation
// A3): the same gossip budget as the bootstrapping service, building ring
// plus fingers instead of ring plus prefix tables.
type ChordParams struct {
	N         int
	Seed      int64
	Config    core.Config
	Drop      float64
	MaxCycles int
}

// ChordPoint is one per-cycle measurement of the Chord baseline.
type ChordPoint struct {
	Cycle int
	// FingerWrong is the proportion of finger entries that differ from
	// ground truth.
	FingerWrong float64
	// LeafMissing is the proportion of missing successor/predecessor
	// entries, against the perfect leaf set the bootstrap service is
	// measured against (truth.LeafMissing, with the chord C parameter).
	LeafMissing float64
	Sent        int64
}

// ChordResult is the outcome of a baseline run.
type ChordResult struct {
	Params      ChordParams
	Points      []ChordPoint
	ConvergedAt int // first cycle with perfect fingers everywhere, or -1
	Stats       simnet.Stats
}

// RunChord executes the Chord baseline and returns its per-cycle series.
func RunChord(p ChordParams) (*ChordResult, error) {
	if err := p.Config.Validate(); err != nil {
		return nil, err
	}
	net := simnet.New(simnet.Config{Seed: p.Seed, Drop: p.Drop})
	rng := rand.New(rand.NewSource(p.Seed + 0x51ed270))
	ids := id.Unique(p.N, p.Seed+0x2545f491)
	descs := make([]peer.Descriptor, p.N)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, p.Seed+0x9e3779b9)
	nodes := make([]*chord.Node, p.N)
	for i, d := range descs {
		nd, err := chord.NewNode(d, p.Config, oracle)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
		if err := net.Attach(d.Addr, chord.ProtoID, nd, p.Config.Delta, rng.Int63n(p.Config.Delta)); err != nil {
			return nil, err
		}
	}
	tr, err := truth.New(ids, p.Config.B, p.Config.K, p.Config.C)
	if err != nil {
		return nil, err
	}

	res := &ChordResult{Params: p, ConvergedAt: -1}
	for cycle := 0; cycle < p.MaxCycles; cycle++ {
		net.Run(int64(cycle+1) * p.Config.Delta)
		var wrong, leafMiss, leafTot int
		for _, nd := range nodes {
			for i := 0; i < chord.NumFingers; i++ {
				if f := nd.Finger(i); f.Nil() || f.ID != tr.Successor(nd.FingerTarget(i)) {
					wrong++
				}
			}
			lm, lt := tr.LeafMissing(nd.Self().ID, nd.Leaf())
			leafMiss += lm
			leafTot += lt
		}
		pt := ChordPoint{
			Cycle:       cycle,
			FingerWrong: float64(wrong) / float64(len(nodes)*chord.NumFingers),
			Sent:        net.Stats().Sent,
		}
		if leafTot > 0 {
			pt.LeafMissing = float64(leafMiss) / float64(leafTot)
		}
		res.Points = append(res.Points, pt)
		if wrong == 0 && leafMiss == 0 {
			res.ConvergedAt = cycle
			break
		}
	}
	res.Stats = net.Stats()
	return res, nil
}
