package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
)

// simEngine runs a trial on the deterministic simulator: virtual time,
// replacement churn and mass joins. Between Run calls the simulator is
// quiescent, so freeze and thaw have nothing to do and the parallel
// measurement readers see stable protocol state.
type simEngine struct {
	population
	p   Params
	net *simnet.Network
	rng *rand.Rand // harness-level randomness (offsets, churn picks)
	// idGen names the nodes. Explicit initial IDs bypass it, so they are
	// reserved: later churn/join draws are then collision-free by
	// construction (the generator never repeats a reserved or produced ID).
	idGen      *id.Generator
	samplerSeq int64 // per-node sampler seed counter (spawn order)
	aliveBuf   []*member
	// cycle is the driver's current cycle; spawn stamps it on new members
	// so measurement can stratify by node age.
	cycle int
	start int64 // virtual time of cycle 0, after the NEWSCAST warmup
}

// newSimTrial wires p's network up to the first bootstrap cycle.
func newSimTrial(p Params) (*trial, *simEngine, error) {
	e := &simEngine{
		p:     p,
		net:   simnet.New(simnet.Config{Seed: p.Seed, Drop: p.Drop, Shards: p.Shards}),
		rng:   rand.New(rand.NewSource(p.Seed + 0x9e3779b9)),
		idGen: id.NewGenerator(p.Seed + 0x7f4a7c15),
	}
	e.idGen.Reserve(p.IDs...)
	e.cfg = p.Config
	e.cfg.Arena = peer.NewDescriptorArena()

	descs := make([]peer.Descriptor, p.N)
	for i := range descs {
		nodeID := e.idGen.Next()
		if len(p.IDs) == p.N {
			nodeID = p.IDs[i]
		}
		descs[i] = peer.Descriptor{ID: nodeID, Addr: e.net.AddNode()}
	}
	e.oracle = sampling.NewOracle(descs, p.Seed+0x1234)

	warmup := int64(0)
	if p.Sampler == SamplerNewscast {
		warmup = int64(p.WarmupCycles) * p.Config.Delta
	}
	for _, d := range descs {
		if err := e.spawn(d, warmup); err != nil {
			return nil, nil, err
		}
	}
	if warmup > 0 {
		e.net.Run(warmup)
	}
	e.start = e.net.Now()
	t, err := newTrial(e, e.ids(), p.Config, p.Seed, p.measureSpec(), p.KeepRunningAfterPerfect)
	return t, e, err
}

// spawn creates a node: its sampling instance (live NEWSCAST or shared
// oracle) and its bootstrap instance, attached with a random start offset
// within one Δ, as the paper prescribes.
func (e *simEngine) spawn(d peer.Descriptor, bootstrapStart int64) error {
	delta := e.cfg.Delta
	m := &member{desc: d, alive: true, joinCycle: e.cycle}
	var svc sampling.Service
	switch {
	case e.p.Sampler == SamplerNewscast:
		// Seed the view with a few random contacts (the "bootstrap
		// server" a joining node would contact in practice).
		m.nc = newscast.New(d, e.oracle.Sample(5), newscast.DefaultViewSize)
		if err := e.net.Attach(d.Addr, newscast.ProtoID, m.nc, delta, e.rng.Int63n(delta)); err != nil {
			return fmt.Errorf("attach newscast: %w", err)
		}
		// The adapter draws from the co-located view through its own
		// seeded stream instead of the node's engine RNG.
		e.samplerSeq++
		svc = newscast.NewSampler(m.nc, e.p.Seed+0x51*e.samplerSeq)
	case e.p.Shards > 1:
		// Parallel dispatch would interleave draws on the shared
		// oracle stream in worker order, making the trace depend on
		// scheduling. Give every node its own deterministic Stream
		// keyed by spawn order instead (the host engine does the same);
		// the node's draw sequence is then a pure function of the seed
		// and invariant across shard counts.
		e.samplerSeq++
		svc = e.oracle.Stream(e.samplerSeq)
	default:
		svc = e.oracle
	}
	boot, err := core.NewNode(d, e.cfg, svc)
	if err != nil {
		return err
	}
	m.boot = boot
	offset := bootstrapStart + e.rng.Int63n(delta)
	if err := e.net.Attach(d.Addr, core.ProtoID, boot, delta, offset); err != nil {
		return fmt.Errorf("attach bootstrap: %w", err)
	}
	e.members = append(e.members, m)
	return nil
}

func (e *simEngine) applyFaults(cycle int) (added, removed []id.ID, err error) {
	e.cycle = cycle
	if e.p.Churn.Active(cycle) {
		removed = e.killWave()
		if added, err = e.spawnWave(added, len(removed)); err != nil {
			return nil, nil, err
		}
	}
	if e.p.Join.Count > 0 && cycle == e.p.Join.Cycle {
		added, err = e.spawnWave(added, e.p.Join.Count)
	}
	return added, removed, err
}

// killWave retires Rate*N random live nodes; applyFaults replaces them
// with as many fresh ones, keeping N constant.
func (e *simEngine) killWave() (removed []id.ID) {
	n := int(e.p.Churn.Rate * float64(e.p.N))
	if n == 0 && e.p.Churn.Rate > 0 {
		n = 1
	}
	alive := e.aliveBuf[:0]
	for _, m := range e.members {
		if m.alive {
			alive = append(alive, m)
		}
	}
	e.aliveBuf = alive
	n = min(n, len(alive))
	perm := e.rng.Perm(len(alive))
	removed = make([]id.ID, n)
	for i := range removed {
		victim := alive[perm[i]]
		victim.alive = false
		e.net.Kill(victim.desc.Addr)
		// A churned node never comes back (unlike a host's Kill/Respawn):
		// hand its structure blocks to the arena for the replacement wave.
		victim.boot.Release()
		removed[i] = victim.desc.ID
	}
	e.oracle.RemoveAll(removed)
	return removed
}

// spawnWave starts count fresh nodes within the coming cycle — churn's
// replacements, or a massive simultaneous join. New nodes appear in the
// sampling layer immediately (the paper's NEWSCAST handles that in a
// handful of cycles even after doubling; with the oracle it is instant).
func (e *simEngine) spawnWave(added []id.ID, count int) ([]id.ID, error) {
	for i := 0; i < count; i++ {
		d := peer.Descriptor{ID: e.idGen.Next(), Addr: e.net.AddNode()}
		e.oracle.Add(d)
		if err := e.spawn(d, 0); err != nil {
			return nil, err
		}
		added = append(added, d.ID)
	}
	return added, nil
}

// lastFault: only a pending mass join holds convergence back. Replacement
// churn is a steady-state workload, not a fault with an end to wait for.
func (e *simEngine) lastFault() int {
	if e.p.Join.Count > 0 {
		return e.p.Join.Cycle
	}
	return -1
}

func (e *simEngine) advance(cycle int) { e.net.Run(e.start + int64(cycle+1)*e.cfg.Delta) }
func (e *simEngine) freeze()           {}
func (e *simEngine) thaw()             {}

func (e *simEngine) traffic() traffic {
	st := e.net.Stats()
	return traffic{st.Sent, st.Dropped, st.WireUnits}
}
