package experiment

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/memstats"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/truth"
)

// LiveParams configures one live campaign trial: the bootstrap protocol
// running on the concurrent goroutine runtime (package livenet) under a
// churn/failure scenario, with wall-clock cycles instead of virtual time.
// The sampling layer is the oracle — the paper's operating assumption —
// so campaigns isolate the bootstrap layer's behaviour under real
// concurrency and injected faults.
type LiveParams struct {
	// N is the network size (one goroutine-backed host per node).
	N int
	// Config holds the bootstrap protocol parameters. Delta is ignored;
	// Period is the wall-clock gossip period.
	Config core.Config
	// Period is the wall-clock gossip period Δ. Zero selects a default
	// that scales with N so laptop-class machines keep up.
	Period time.Duration
	// Cycles is the campaign length in periods.
	Cycles int
	// Drop is the initial per-message loss probability (scenarios may
	// change it mid-run).
	Drop float64
	// MinLatency and MaxLatency bound the initial delivery latency.
	MinLatency, MaxLatency time.Duration
	// InboxSize bounds each host's inbox (zero selects the livenet
	// default).
	InboxSize int
	// Scenario is the churn/failure schedule; the zero value runs
	// failure-free.
	Scenario livenet.Scenario
	// KeepRunningAfterPerfect continues to Cycles even after perfection.
	KeepRunningAfterPerfect bool
	// MeasureWorkers shards the pause-the-world measurement across this
	// many goroutines (0 = GOMAXPROCS). The reported fractions are
	// bit-identical for every value; only the paused window shrinks.
	MeasureWorkers int
	// MeasureSample, when positive and smaller than the live population,
	// measures a uniform node sample per cycle instead of the whole
	// network (see Params.MeasureSample) — under livenet it additionally
	// shrinks the pause-the-world window from O(N) to O(sample).
	MeasureSample int
	// MeasureConfidence is the two-sided confidence level of the sampled
	// estimator's intervals; 0 selects 0.95.
	MeasureConfidence float64
	// Sampler selects the sampling layer under the bootstrap nodes; the
	// zero value means oracle. With SamplerOracle every node draws
	// through its own lock-free oracle Stream; with SamplerNewscast a
	// NEWSCAST instance runs on every host and the bootstrap layer
	// samples its decentralized view through a newscast.Sampler.
	Sampler SamplerKind
	// WarmupCycles delays the bootstrap layer's start by this many
	// periods so a NEWSCAST layer can randomise its views first (ignored
	// for the oracle sampler). Warmup happens before cycle 0: measured
	// cycles always cover a running bootstrap layer.
	WarmupCycles int
	// MemStats records the live heap into LiveResult.HeapBytes after the
	// last cycle, with every host still running (see Params.MemStats).
	// A single trial's figure is directly attributable; across a
	// concurrent campaign use LiveTrialsResult.Mem, the shared tracker
	// RunLiveTrials maintains from the same per-trial samples.
	MemStats bool

	// memCampaign mirrors Params.memCampaign: set only by RunLiveTrials so
	// every trial's end-of-run heap sample also feeds the campaign peak.
	memCampaign *memstats.Campaign
}

// liveTicksPerCoreSecond is the sustained protocol-callback throughput
// one core absorbs with headroom to spare for the measurement barrier:
// each tick triggers a request and a reply, together ~100µs of leaf-set/
// prefix-table work plus scheduling, so one core saturates near 10k
// ticks/s — target about half that.
const liveTicksPerCoreSecond = 5000

// DefaultLivePeriod returns a gossip period that keeps the aggregate tick
// rate of `concurrent` simultaneous n-host trials within this machine's
// capacity. Every host ticks once per period, so the offered load is
// n*concurrent/period ticks per second; a period shorter than the cores
// can absorb just melts into inbox backlog, skipped ticks and seconds-long
// scheduler queues — measured convergence then reflects the overload, not
// the protocol. Clamped to [10ms, 10s].
func DefaultLivePeriod(n, concurrent int) time.Duration {
	if concurrent < 1 {
		concurrent = 1
	}
	cores := runtime.GOMAXPROCS(0)
	p := time.Duration(int64(n) * int64(concurrent) * int64(time.Second) / int64(cores*liveTicksPerCoreSecond))
	if p < 10*time.Millisecond {
		p = 10 * time.Millisecond
	}
	if p > 10*time.Second {
		p = 10 * time.Second
	}
	return p
}

func (p LiveParams) withDefaults(concurrent int) LiveParams {
	// Only exactly zero selects the default — a negative Period is a
	// caller bug that must reach Validate, not be silently replaced.
	if p.Period == 0 {
		p.Period = DefaultLivePeriod(p.N, concurrent)
	}
	return p
}

// Validate checks the parameters.
func (p LiveParams) Validate() error {
	if p.N < 2 {
		return errors.New("experiment: live N must be at least 2")
	}
	if p.Cycles < 1 {
		return errors.New("experiment: live Cycles must be positive")
	}
	if p.Drop < 0 || p.Drop >= 1 {
		return fmt.Errorf("experiment: live Drop = %v out of [0, 1)", p.Drop)
	}
	if p.Period < 0 {
		return errors.New("experiment: live Period must not be negative")
	}
	if p.MinLatency < 0 || p.MaxLatency < 0 {
		return errors.New("experiment: live latency bounds must not be negative")
	}
	if p.MeasureWorkers < 0 {
		return fmt.Errorf("experiment: live MeasureWorkers = %d must not be negative", p.MeasureWorkers)
	}
	if p.MeasureSample < 0 {
		return fmt.Errorf("experiment: live MeasureSample = %d must not be negative", p.MeasureSample)
	}
	if p.MeasureConfidence < 0 || p.MeasureConfidence >= 1 {
		return fmt.Errorf("experiment: live MeasureConfidence = %v out of [0, 1)", p.MeasureConfidence)
	}
	if p.WarmupCycles < 0 {
		return fmt.Errorf("experiment: live WarmupCycles = %d must not be negative", p.WarmupCycles)
	}
	return p.Config.Validate()
}

// LiveResult is the outcome of one live trial.
type LiveResult struct {
	Params LiveParams
	Seed   int64
	// Schedule is the scenario's event plan for this seed — deterministic
	// given (seed, scenario), unlike the message interleaving.
	Schedule []livenet.Event
	// Points holds one entry per completed cycle. WireUnits is always 0:
	// the livenet engine does not do descriptor-unit accounting.
	Points []Point
	// ConvergedAt is the first cycle at which both structures were
	// perfect at every live node, or -1.
	ConvergedAt int
	// Stats is the final network traffic snapshot (conserved: Sent ==
	// Delivered + Dropped + Overflow after shutdown).
	Stats livenet.Stats
	// Killed and Respawned count lifecycle events applied by the
	// scenario.
	Killed, Respawned int
	// HeapBytes is the post-GC live heap captured before shutdown; 0
	// unless Params.MemStats was set.
	HeapBytes uint64
}

// Final returns the last measured point (zero Point for an empty series).
func (res *LiveResult) Final() Point {
	if len(res.Points) == 0 {
		return Point{}
	}
	return res.Points[len(res.Points)-1]
}

// liveMember is one node of the campaign network.
type liveMember struct {
	desc  peer.Descriptor
	host  *livenet.Host
	node  *core.Node
	nc    *newscast.Protocol // non-nil under SamplerNewscast
	alive bool
}

// RunLive executes one live trial: N hosts on the concurrent runtime,
// scenario events applied at cycle boundaries, and a pause-the-world
// measurement (PauseAll/ResumeAll) of the convergence metrics each cycle.
func RunLive(p LiveParams, seed int64) (*LiveResult, error) {
	p = p.withDefaults(1)
	if err := p.Validate(); err != nil {
		return nil, err
	}

	net := livenet.New(livenet.Config{
		Seed:       seed,
		Drop:       p.Drop,
		MinLatency: p.MinLatency,
		MaxLatency: p.MaxLatency,
		InboxSize:  p.InboxSize,
	})
	defer net.Close()

	ids := id.Unique(p.N, seed+0x11)
	descs := make([]peer.Descriptor, p.N)
	members := make([]*liveMember, p.N)
	for i := 0; i < p.N; i++ {
		h := net.AddHost()
		descs[i] = peer.Descriptor{ID: ids[i], Addr: h.Addr()}
		members[i] = &liveMember{desc: descs[i], host: h, alive: true}
	}
	oracle := sampling.NewOracle(descs, seed+0x1234)
	rng := rand.New(rand.NewSource(seed + 0x9e3779b9))
	measRNG := rand.New(rand.NewSource(seed + 0x5ca1ab1e))
	// One arena per trial, shared by every host's node. Blocks are never
	// released during the run: a killed host keeps its protocol state for
	// Respawn (the crash-recovery model), so its blocks stay owned by the
	// node for the whole trial. The arena's win here is batching: ~3 block
	// allocations per node become one chunk allocation per 256 blocks.
	cfg := p.Config
	cfg.Arena = peer.NewDescriptorArena()
	warmup := time.Duration(0)
	if p.Sampler == SamplerNewscast {
		warmup = time.Duration(p.WarmupCycles) * p.Period
	}
	for i, m := range members {
		// Each node samples through its own handle — an oracle Stream
		// or a newscast Sampler — so the per-tick sample path never
		// takes a shared lock: concurrent hosts do not contend.
		var svc sampling.Service
		if p.Sampler == SamplerNewscast {
			m.nc = newscast.New(m.desc, oracle.Sample(5), newscast.DefaultViewSize)
			ncOffset := time.Duration(rng.Int63n(int64(p.Period)))
			if err := m.host.Attach(newscast.ProtoID, m.nc, p.Period, ncOffset); err != nil {
				return nil, fmt.Errorf("attach newscast: %w", err)
			}
			svc = newscast.NewSampler(m.nc, seed+0x51*int64(i+1))
		} else {
			svc = oracle.Stream(int64(i))
		}
		node, err := core.NewNode(m.desc, cfg, svc)
		if err != nil {
			return nil, err
		}
		m.node = node
		offset := warmup + time.Duration(rng.Int63n(int64(p.Period)))
		if err := m.host.Attach(core.ProtoID, node, p.Period, offset); err != nil {
			return nil, fmt.Errorf("attach bootstrap: %w", err)
		}
	}

	schedule := p.Scenario.Events(seed, p.N, p.Cycles)
	byCycle := make(map[int][]livenet.Event, len(schedule))
	lastEvent := -1
	for _, e := range schedule {
		byCycle[e.Cycle] = append(byCycle[e.Cycle], e)
		if e.Cycle > lastEvent {
			lastEvent = e.Cycle
		}
	}

	if err := net.Start(); err != nil {
		return nil, err
	}
	// Let the NEWSCAST layer gossip alone through the warmup window; the
	// bootstrap bindings' offsets already delay their first tick past it.
	if warmup > 0 {
		time.Sleep(warmup)
	}

	// The trial's ground-truth oracle: built once, then patched with the
	// kill/respawn deltas of each cycle's scenario events. Membership
	// only changes via applyLiveEvent (same goroutine), so the patch
	// happens before pausing the world — the stop-the-world window then
	// covers only the actual state inspection, not the truth derivation.
	tr, err := truth.New(ids, p.Config.B, p.Config.K, p.Config.C)
	if err != nil {
		return nil, err
	}

	res := &LiveResult{Params: p, Seed: seed, Schedule: schedule, ConvergedAt: -1}
	var measBuf []truth.Member
	for cycle := 0; cycle < p.Cycles; cycle++ {
		for _, e := range byCycle[cycle] {
			added, removed, err := applyLiveEvent(net, members, oracle, rng, e, res)
			if err != nil {
				return nil, err
			}
			if len(added) > 0 || len(removed) > 0 {
				if err := tr.Update(added, removed); err != nil {
					return nil, err
				}
			}
		}
		time.Sleep(p.Period)

		net.PauseAll()
		ms := measBuf[:0]
		alive := 0
		for _, m := range members {
			if !m.alive {
				continue
			}
			alive++
			ms = append(ms, truth.Member{Self: m.desc.ID, Leaf: m.node.Leaf(), Table: m.node.Table()})
		}
		measBuf = ms
		var pt Point
		confirmed := true
		st := net.Snapshot()
		if p.MeasureSample > 0 {
			sa := tr.MeasureSampleConf(ms, p.MeasureSample, p.MeasureConfidence, measRNG, p.MeasureWorkers)
			pt = pointFromSampleAggregate(cycle, sa, alive, st.Sent, st.Dropped, 0)
			if pt.LeafMissing == 0 && pt.PrefixMissing == 0 && pt.SampleSize > 0 {
				// An all-perfect sample can simply have missed every
				// imperfect node; confirm with one exact measurement while
				// the world is still paused before the convergence check
				// below may trust it. When the exact measurement disagrees
				// it supersedes the sample as the reported point (SampleSize
				// == 0 marks it exact): the full measurement is already paid
				// for, and an optimistic estimate the run itself refuted
				// would misreport the convergence tail.
				agg := tr.MeasureAll(ms, p.MeasureWorkers)
				confirmed = agg.LeafMissing == 0 && agg.PrefixMissing == 0
				if !confirmed {
					pt = pointFromAggregate(cycle, agg, alive, st.Sent, st.Dropped, 0)
				}
			}
		} else {
			agg := tr.MeasureAll(ms, p.MeasureWorkers)
			pt = pointFromAggregate(cycle, agg, alive, st.Sent, st.Dropped, 0)
		}
		net.ResumeAll()

		res.Points = append(res.Points, pt)
		// Events apply at the start of their cycle and measurement runs
		// at its end, so a perfect measurement at the last event's own
		// cycle already reflects the fully applied fault plan.
		if pt.LeafMissing == 0 && pt.PrefixMissing == 0 && confirmed && cycle >= lastEvent {
			if res.ConvergedAt < 0 {
				res.ConvergedAt = cycle
			}
			if !p.KeepRunningAfterPerfect {
				break
			}
		}
	}
	if p.MemStats {
		if p.memCampaign != nil {
			res.HeapBytes = p.memCampaign.Sample()
		} else {
			res.HeapBytes = memstats.HeapAlloc()
		}
	}
	net.Close()
	res.Stats = net.Snapshot()
	return res, nil
}

// applyLiveEvent executes one scenario event; it returns the membership
// delta (IDs that joined and left) for the trial's ground-truth oracle.
func applyLiveEvent(net *livenet.Network, members []*liveMember, oracle *sampling.Oracle, rng *rand.Rand, e livenet.Event, res *LiveResult) (added, removed []id.ID, err error) {
	switch e.Op {
	case livenet.OpKill:
		var alive []*liveMember
		for _, m := range members {
			if m.alive {
				alive = append(alive, m)
			}
		}
		k := int(e.Frac * float64(len(alive)))
		if k == 0 && e.Frac > 0 {
			k = 1
		}
		// Never kill the whole network: keep at least two hosts so the
		// survivors still have someone to gossip with.
		if max := len(alive) - 2; k > max {
			k = max
		}
		if k <= 0 {
			return nil, nil, nil
		}
		perm := rng.Perm(len(alive))
		// Kill the wave in parallel: each Kill blocks until the victim's
		// goroutine exits, and paying those scheduler round-trips serially
		// makes a 1000-host wave take minutes on a loaded machine.
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			victim := alive[perm[i]]
			victim.alive = false
			oracle.Remove(victim.desc.ID)
			res.Killed++
			removed = append(removed, victim.desc.ID)
			wg.Add(1)
			go func() {
				defer wg.Done()
				victim.host.Kill()
			}()
		}
		wg.Wait()
		return nil, removed, nil
	case livenet.OpRespawn:
		for _, m := range members {
			if m.alive {
				continue
			}
			if err := m.host.Respawn(); err != nil {
				return added, nil, err
			}
			m.alive = true
			oracle.Add(m.desc)
			res.Respawned++
			added = append(added, m.desc.ID)
		}
		return added, nil, nil
	case livenet.OpPartition:
		split := peer.Addr(e.Split)
		net.SetPartition(func(from, to peer.Addr) bool {
			return (from < split) != (to < split)
		})
		return nil, nil, nil
	case livenet.OpHeal:
		net.SetPartition(nil)
		return nil, nil, nil
	case livenet.OpSetDrop:
		v := e.Value
		if v < 0 {
			v = res.Params.Drop // restore the configured baseline
		}
		net.SetDrop(v)
		return nil, nil, nil
	case livenet.OpSetLatency:
		min, max := e.Min, e.Max
		if min < 0 || max < 0 {
			min, max = res.Params.MinLatency, res.Params.MaxLatency
		}
		net.SetLatency(min, max)
		return nil, nil, nil
	default:
		return nil, nil, fmt.Errorf("experiment: unknown scenario op %v", e.Op)
	}
}

// LiveTrialsResult is the outcome of a multi-trial live campaign.
type LiveTrialsResult struct {
	// Params is the shared configuration.
	Params LiveParams
	// Seeds are the per-trial seeds, in input order.
	Seeds []int64
	// Trials holds one full LiveResult per seed, index-aligned with
	// Seeds.
	Trials []*LiveResult
	// Agg is the per-cycle aggregate series (see TrialsResult.Agg).
	Agg []AggPoint
	// Workers is the resolved worker-pool size the trials actually ran on.
	Workers int
	// Mem is the campaign heap tracker (see TrialsResult.Mem). Nil unless
	// Params.MemStats was set.
	Mem *memstats.Campaign
}

// RunLiveTrials runs one independent live trial per seed, fanning the
// trials across a pool of workers goroutines (workers < 1 means
// GOMAXPROCS), and aggregates the per-cycle convergence series. Unlike
// RunTrials the per-trial series are wall-clock concurrent executions:
// the fault schedules are deterministic per seed, the interleavings are
// not, which is exactly the point of the campaign.
func RunLiveTrials(p LiveParams, seeds []int64, workers int) (*LiveTrialsResult, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiment: RunLiveTrials needs at least one seed")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	// Resolve the default period against the number of trials that will
	// actually run at once, and share it across all trials so their
	// per-cycle series aggregate like with like.
	p = p.withDefaults(workers)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Shared campaign tracker (see RunTrials): every trial samples the
	// heap before its shutdown and the tracker keeps the high-water mark.
	if p.MemStats {
		p.memCampaign = memstats.StartCampaign()
	}

	results := make([]*LiveResult, len(seeds))
	errs := make([]error, len(seeds))
	runPool(len(seeds), workers, func(i int) {
		results[i], errs[i] = RunLive(p, seeds[i])
	})

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("live trial %d (seed %d): %w", i, seeds[i], err)
		}
	}
	series := make([][]Point, len(results))
	conv := make([]int, len(results))
	for i, r := range results {
		series[i] = r.Points
		conv[i] = r.ConvergedAt
	}
	return &LiveTrialsResult{
		Params:  p,
		Seeds:   seeds,
		Trials:  results,
		Agg:     aggregateSeries(series, conv),
		Workers: workers,
		Mem:     p.memCampaign,
	}, nil
}

// ConvergedTrials counts trials that reached perfection.
func (tr *LiveTrialsResult) ConvergedTrials() int {
	n := 0
	for _, t := range tr.Trials {
		if t.ConvergedAt >= 0 {
			n++
		}
	}
	return n
}

// TotalStats sums the traffic counters across trials.
func (tr *LiveTrialsResult) TotalStats() livenet.Stats {
	var total livenet.Stats
	for _, t := range tr.Trials {
		total.Add(t.Stats)
	}
	return total
}

// WriteCSV emits the aggregate per-cycle series with a header.
func (tr *LiveTrialsResult) WriteCSV(w io.Writer) error {
	return writeAggCSV(w, tr.Agg, tr.Params.MeasureSample > 0)
}
