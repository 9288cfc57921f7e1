package experiment

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/livenet"
	"repro/internal/truth"
)

// LiveParams configures one live campaign trial: the bootstrap protocol
// running on the concurrent goroutine host runtime (internal/host) under a
// churn/failure scenario, with wall-clock cycles instead of virtual time —
// over livenet's in-memory link, or over real loopback sockets (Sockets).
// By default the sampling layer is the oracle — the paper's operating
// assumption — so campaigns isolate the bootstrap layer's behaviour under
// real concurrency and injected faults.
type LiveParams struct {
	// N is the network size (one goroutine-backed host per node), summed
	// over all processes of a sharded socket campaign.
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
	// MinLatency and MaxLatency bound the initial delivery latency the
	// hosts inject on arrival, on either link (on sockets it adds to the
	// kernel's own).
	MinLatency, MaxLatency time.Duration
	// Sockets, when non-nil, runs the trial over real loopback sockets
	// (package transport) instead of the in-memory link; it says where
	// this process sits in the campaign. The link carries only bootstrap
	// messages, so the sampler must be the oracle.
	Sockets *Sockets
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
	// network (see Params.MeasureSample) — here it additionally shrinks
	// the pause-the-world window from O(N) to O(sample). Single-process
	// only: a sharded campaign sums exact per-process counts.
	MeasureSample int
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
	// concurrent campaign use LiveTrialsResult.HeapPeak, the high-water
	// mark of the same per-trial samples.
	MemStats bool
}

// Sockets places a trial on transport's port-indexed localhost topology —
// deployment settings, not protocol parameters.
type Sockets struct {
	// Procs shards the campaign over OS processes (zero selects 1); Proc
	// is this process's shard in [0, Procs). Process p owns the hosts with
	// addr % Procs == p.
	Procs, Proc int
	// BasePort indexes the topology: process p listens on BasePort+p.
	BasePort int
}

// procs is the campaign's process count; 1 for the in-memory link.
func (s *Sockets) procs() int {
	if s == nil || s.Procs <= 0 {
		return 1
	}
	return s.Procs
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
	cores := runtime.GOMAXPROCS(0)
	p := time.Duration(int64(n) * int64(max(concurrent, 1)) * int64(time.Second) / int64(cores*liveTicksPerCoreSecond))
	return min(max(p, 10*time.Millisecond), 10*time.Second)
}

func (p LiveParams) measureSpec() measureSpec {
	return measureSpec{sample: p.MeasureSample, workers: p.MeasureWorkers}
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
	if err := validateShared("live ", p.N, p.Cycles, p.Drop, p.WarmupCycles, p.measureSpec()); err != nil {
		return err
	}
	if p.Period < 0 {
		return errors.New("experiment: live Period must not be negative")
	}
	if p.MinLatency < 0 || p.MaxLatency < 0 {
		return errors.New("experiment: live latency bounds must not be negative")
	}
	if s := p.Sockets; s != nil {
		if s.Proc < 0 || s.Proc >= s.procs() {
			return fmt.Errorf("experiment: live Sockets.Proc = %d out of [0, %d)", s.Proc, s.procs())
		}
		if p.Sampler == SamplerNewscast {
			return errors.New("experiment: the socket link carries only bootstrap messages; NEWSCAST needs the in-memory link")
		}
		if p.MeasureSample > 0 && s.procs() > 1 {
			return errors.New("experiment: sampled measurement is single-process (partial sums need exact counts)")
		}
	}
	return p.Config.Validate()
}

// LiveResult is the outcome of one live trial, on either link.
type LiveResult struct {
	Params LiveParams
	Seed   int64
	// Schedule is the scenario's event plan for this seed — deterministic
	// given (seed, scenario), unlike the message interleaving.
	Schedule []livenet.Event
	// Points holds one entry per completed cycle. WireUnits is always 0:
	// the host runtime does not do descriptor-unit accounting.
	Points []Point
	// ConvergedAt is the first cycle at which both structures were
	// perfect at every live node, or -1.
	ConvergedAt int
	// Stats is the final network traffic snapshot, conserved: Sent ==
	// Delivered + Dropped + Overflow — exactly after the in-memory link's
	// shutdown, at quiescence on sockets.
	Stats host.Stats
	// Killed and Respawned count lifecycle events applied by the
	// scenario.
	Killed, Respawned int
	// HeapBytes is the post-GC live heap captured before shutdown; 0
	// unless Params.MemStats was set.
	HeapBytes uint64
}

// Final returns the last measured point (zero Point for an empty series).
func (res *LiveResult) Final() Point { return lastPoint(res.Points) }

// WriteCSV emits the trial as a one-trial campaign in the shared aggregate
// CSV format (see LiveTrialsResult.WriteCSV).
func (res *LiveResult) WriteCSV(w io.Writer) error {
	agg := aggregateSeries([][]Point{res.Points}, []int{res.ConvergedAt})
	return writeAggCSV(w, agg, res.Params.MeasureSample > 0)
}

// newLiveTrial validates p, then opens, wires and starts this process's
// share of the trial. The engine's p has the defaults resolved.
func newLiveTrial(p LiveParams, seed int64) (*trial, *hostEngine, error) {
	p = p.withDefaults(1)
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	eng, err := openHostEngine(p, seed)
	if err != nil {
		return nil, nil, err
	}
	t, err := newTrial(eng, eng.ids(), p.Config, seed, p.measureSpec(), p.KeepRunningAfterPerfect)
	if err == nil {
		err = eng.rt.Start()
	}
	if err != nil {
		eng.rt.Close()
		return nil, nil, err
	}
	time.Sleep(eng.warmup) // the NEWSCAST layer gossips alone before cycle 0
	return t, eng, nil
}

// RunLive executes one live trial: N hosts on the concurrent runtime,
// scenario events applied at cycle boundaries, and a pause-the-world
// measurement (PauseAll/ResumeAll) of the convergence metrics each cycle.
// It runs the whole network in this process; the shards of a multi-process
// socket campaign are stepped through OpenLiveShard instead.
func RunLive(p LiveParams, seed int64) (*LiveResult, error) {
	if p.Sockets.procs() != 1 {
		return nil, errors.New("experiment: RunLive is single-process; step the shards of a multi-process campaign with OpenLiveShard (sim sock)")
	}
	t, eng, err := newLiveTrial(p, seed)
	if err != nil {
		return nil, err
	}
	defer eng.rt.Close()
	if err := t.run(eng.p.Cycles); err != nil {
		return nil, err
	}
	res := &LiveResult{
		Params: eng.p, Seed: seed, Schedule: eng.schedule,
		Points: t.rec.points, ConvergedAt: t.rec.convergedAt,
		Killed: eng.killed, Respawned: eng.respawned,
		HeapBytes: captureHeap(p.MemStats),
	}
	res.Stats, err = eng.finish()
	return res, err
}

// LiveShard is one process's share of a sharded socket campaign, stepped
// one cycle at a time so a driver (cmd/sim sock) can put its own barriers
// between cycles. It is the same trial RunLive runs; only the stopping rule
// moves to the driver's ShardRecorder, which sees the whole network.
type LiveShard struct {
	t   *trial
	eng *hostEngine
}

// OpenLiveShard builds and starts the shard p.Sockets names.
func OpenLiveShard(p LiveParams, seed int64) (*LiveShard, error) {
	if p.Sockets == nil {
		return nil, errors.New("experiment: a live shard needs LiveParams.Sockets")
	}
	t, eng, err := newLiveTrial(p, seed)
	if err != nil {
		return nil, err
	}
	return &LiveShard{t: t, eng: eng}, nil
}

// Partial is one shard's report of one cycle: the exact measurement over
// the members the shard owns, how many live nodes that covered, the
// network-wide live count its fault plan implies, and its cumulative Sent
// and Dropped counters.
type Partial struct {
	Agg               truth.Aggregate
	LocalAlive, Alive int
	Sent, Dropped     int64
}

// Step runs one campaign cycle on this shard: apply the cycle's faults, let
// the network gossip for one period, pause the local hosts, measure the
// local members against the global truth, resume.
func (s *LiveShard) Step(cycle int) (Partial, error) { return s.t.partial(cycle) }

// Drain quiesces this shard's traffic within DrainBudget: tick sources off,
// then wait for the counters to settle. Campaign drivers call it on every
// shard before summing final stats.
func (s *LiveShard) Drain() bool { return s.eng.drain() }

// Stats returns the shard-local traffic counters.
func (s *LiveShard) Stats() host.Stats { return s.eng.rt.Snapshot() }

// Held returns how many arrivals the shard's hosts hold for their latency:
// counted Sent, with no outcome yet (see host.Runtime.Held).
func (s *LiveShard) Held() int64 { return s.eng.rt.Held() }

// WriteStats returns how many frames the shard has handed to the kernel and
// in how many Write calls (see transport.Network.WriteStats).
func (s *LiveShard) WriteStats() (frames, writes int64) { return s.eng.writeStats() }

// Close tears the shard down.
func (s *LiveShard) Close() { s.eng.rt.Close() }

// ShardRecorder is the driver's side of a sharded campaign: it turns the
// shards' Partials into the per-cycle series and applies the trial driver's
// stopping rule to them.
type ShardRecorder struct {
	res *LiveResult
	rec recorder
}

// NewShardRecorder prepares the record of the campaign (p, seed).
func NewShardRecorder(p LiveParams, seed int64) *ShardRecorder {
	res := &LiveResult{Params: p, Seed: seed, Schedule: p.Scenario.Events(seed, p.N, p.Cycles)}
	return &ShardRecorder{res: res, rec: newRecorder(lastFaultCycle(res.Schedule), p.KeepRunningAfterPerfect)}
}

// Record takes every shard's Partial of cycle, sums them — integer sums, so
// the result is exactly the whole-network measurement — and reports whether
// the campaign stops. Every shard expands the same fault plan: they must
// agree on the live count, and together have measured that many nodes.
func (r *ShardRecorder) Record(cycle int, parts []Partial) (stop bool, err error) {
	var sum Partial
	for _, p := range parts {
		if p.Alive != parts[0].Alive {
			return false, fmt.Errorf("experiment: cycle %d: shards disagree on membership (%d vs %d live) — fault plans diverged", cycle, parts[0].Alive, p.Alive)
		}
		sum.Agg.Add(p.Agg)
		sum.LocalAlive += p.LocalAlive
		sum.Sent += p.Sent
		sum.Dropped += p.Dropped
	}
	if len(parts) == 0 || sum.LocalAlive != parts[0].Alive {
		return false, fmt.Errorf("experiment: cycle %d: %d shards measured %d live nodes, not the whole network", cycle, len(parts), sum.LocalAlive)
	}
	pt := pointFromAggregate(cycle, sum.Agg, sum.LocalAlive, traffic{sent: sum.Sent, dropped: sum.Dropped})
	return r.rec.record(pt, r.rec.settled(cycle) && exactlyPerfect(sum.Agg)), nil
}

// Result returns the campaign so far as a LiveResult; the caller fills in
// Stats once the shards have drained.
func (r *ShardRecorder) Result() *LiveResult {
	r.res.Points, r.res.ConvergedAt = r.rec.points, r.rec.convergedAt
	return r.res
}

// RunLiveTrials runs one independent live trial per seed, fanning the
// trials across a pool of workers goroutines (workers < 1 means
// GOMAXPROCS), and aggregates the per-cycle convergence series. Unlike
// RunTrials the per-trial series are wall-clock concurrent executions:
// the fault schedules are deterministic per seed, the interleavings are
// not, which is exactly the point of the campaign.
func RunLiveTrials(p LiveParams, seeds []int64, workers int) (*LiveTrialsResult, error) {
	tr, err := newCampaign[LiveParams, *LiveResult](seeds, workers, 1, p.MemStats)
	if err != nil {
		return nil, err
	}
	// Resolve the default period against the number of trials that will
	// actually run at once, and share it across all trials so their
	// per-cycle series aggregate like with like.
	p = p.withDefaults(tr.Workers)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tr.Params, tr.sampled = p, p.MeasureSample > 0
	if err := tr.run(func(seed int64) (*LiveResult, error) { return RunLive(p, seed) }); err != nil {
		return nil, err
	}
	return tr, nil
}
