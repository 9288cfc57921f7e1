package simnet

import (
	"fmt"
	"testing"

	"repro/internal/peer"
	"repro/internal/proto"
)

// shardProbe is a self-contained test protocol for the sharded engine: all
// state is per node, and every callback folds its full observable context —
// kind, virtual time, sender, payload — into a running hash. Two runs whose
// per-node hashes all agree dispatched byte-for-byte identical callback
// sequences at identical times, which is exactly the invariance the sharded
// engine promises.
//
// Traffic shape: every tick (up to maxTicks) sends fanout pings to
// rng-chosen peers across the whole address space, so most messages cross
// shard boundaries; a ping with hops left is answered back at the sender,
// so traffic flows both directions through every barrier.
type shardProbe struct {
	peers    int
	fanout   int
	maxTicks int

	ticks int
	hash  uint64
}

func (p *shardProbe) mix(vals ...int64) {
	for _, v := range vals {
		p.hash = splitmix64(p.hash ^ uint64(v))
	}
}

type probeMsg struct {
	hop int32
	tag int64
}

func (probeMsg) WireSize() int { return 3 }

func (p *shardProbe) Init(ctx proto.Context) {
	p.mix(1, ctx.Now(), int64(ctx.Self()))
}

func (p *shardProbe) Tick(ctx proto.Context) {
	p.ticks++
	p.mix(2, ctx.Now())
	if p.ticks > p.maxTicks {
		return
	}
	for i := 0; i < p.fanout; i++ {
		to := peer.Addr(ctx.Rand().Intn(p.peers))
		ctx.Send(to, probeMsg{hop: 2, tag: int64(ctx.Rand().Int31())})
	}
}

func (p *shardProbe) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m := msg.(probeMsg)
	p.mix(3, ctx.Now(), int64(from), int64(m.hop), m.tag)
	if m.hop > 0 {
		ctx.Send(from, probeMsg{hop: m.hop - 1, tag: int64(p.hash)})
	}
}

// probeResult is everything observable about a scenario run: the per-node
// callback hashes and tick counts in creation order, the final traffic
// counters, the processed-event count, and the final clock.
type probeResult struct {
	hashes []uint64
	ticks  []int
	stats  Stats
	events int
	now    int64
	nodes  int
}

// runProbeScenario runs a fixed workload — n nodes ticking and pinging,
// plus (optionally) churn from both At closures and harness calls between
// Run windows — and returns the full observable result. The workload is a
// pure function of cfg, so results are comparable across shard counts.
func runProbeScenario(t *testing.T, cfg Config, n int, churn bool) probeResult {
	t.Helper()
	net := New(cfg)
	var protos []*shardProbe
	addProbe := func() {
		a := net.AddNode()
		pr := &shardProbe{peers: n, fanout: 2, maxTicks: 30}
		if err := net.Attach(a, 1, pr, 3, int64(a%3)); err != nil {
			t.Fatal(err)
		}
		protos = append(protos, pr)
	}
	for i := 0; i < n; i++ {
		addProbe()
	}
	if churn {
		// Mid-run churn through At closures: exercised inside serial
		// windows, interleaved with parallel ones.
		net.At(25, func() {
			net.Kill(peer.Addr(1 % n))
			net.Kill(peer.Addr(7 % n))
		})
		net.At(40, func() { addProbe(); addProbe() })
		net.At(61, func() { net.Kill(peer.Addr(net.NumNodes() - 1)) })
	}
	events := net.Run(30)
	if churn {
		// Harness churn between Run calls (engine idle).
		net.Kill(peer.Addr(5 % n))
		addProbe()
	}
	events += net.Run(75)
	events += net.Run(220)
	res := probeResult{
		stats:  net.Stats(),
		events: events,
		now:    net.Now(),
		nodes:  net.NumNodes(),
	}
	for _, pr := range protos {
		res.hashes = append(res.hashes, pr.hash)
		res.ticks = append(res.ticks, pr.ticks)
	}
	return res
}

// sameProbeResult fails the test on the first observable difference.
func sameProbeResult(t *testing.T, label string, want, got probeResult) {
	t.Helper()
	if got.nodes != want.nodes {
		t.Fatalf("%s: nodes = %d, want %d", label, got.nodes, want.nodes)
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats = %+v, want %+v", label, got.stats, want.stats)
	}
	if got.events != want.events {
		t.Errorf("%s: processed %d events, want %d", label, got.events, want.events)
	}
	if got.now != want.now {
		t.Errorf("%s: now = %d, want %d", label, got.now, want.now)
	}
	for i := range want.hashes {
		if got.hashes[i] != want.hashes[i] || got.ticks[i] != want.ticks[i] {
			t.Fatalf("%s: node %d trace hash/ticks = (%x, %d), want (%x, %d)",
				label, i, got.hashes[i], got.ticks[i], want.hashes[i], want.ticks[i])
		}
	}
}

// TestShardedMatchesSequential pins the strongest claim: with no mid-window
// engine randomness (Drop == 0, fixed latency — including the default
// instant-delivery config), a sharded run is byte-identical to the
// sequential engine for every shard count, through churn from both At
// closures and idle harness calls. Shards ∈ {0, 1} must both take the
// sequential path.
func TestShardedMatchesSequential(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"instant", Config{Seed: 42}},
		{"fixedlat3", Config{Seed: 42, MinLatency: 3, MaxLatency: 3}},
	}
	for _, tc := range configs {
		for _, n := range []int{5, 64} {
			for _, churn := range []bool{false, true} {
				ref := runProbeScenario(t, tc.cfg, n, churn)
				if ref.stats.Sent == 0 || ref.stats.Delivered == 0 {
					t.Fatalf("%s: degenerate reference run: %+v", tc.name, ref.stats)
				}
				for _, shards := range []int{1, 2, 4, 7} {
					cfg := tc.cfg
					cfg.Shards = shards
					got := runProbeScenario(t, cfg, n, churn)
					sameProbeResult(t,
						fmt.Sprintf("%s/n=%d/churn=%v/shards=%d", tc.name, n, churn, shards),
						ref, got)
				}
			}
		}
	}
}

// TestShardedInvarianceStochastic pins the weaker claim that holds with
// engine randomness in play (Drop > 0, a latency window): every shard
// count > 1 produces the identical run, because drop and latency draw from
// per-node wire streams that are pure functions of (seed, addr). The
// sequential engine draws those from its one global stream and legitimately
// diverges, so it is not in the comparison set.
func TestShardedInvarianceStochastic(t *testing.T) {
	cfg := Config{Seed: 99, Drop: 0.25, MinLatency: 1, MaxLatency: 6}
	cfg.Shards = 2
	ref := runProbeScenario(t, cfg, 64, true)
	if ref.stats.Dropped == 0 {
		t.Fatal("stochastic scenario dropped nothing; drop path untested")
	}
	if ref.stats.DeadDest == 0 {
		t.Fatal("churn scenario hit no dead destinations; kill path untested")
	}
	for _, shards := range []int{3, 4, 8} {
		cfg.Shards = shards
		got := runProbeScenario(t, cfg, 64, true)
		sameProbeResult(t, fmt.Sprintf("shards=%d", shards), ref, got)
	}
	// Determinism: the same configuration twice is the same run.
	cfg.Shards = 4
	a := runProbeScenario(t, cfg, 64, true)
	b := runProbeScenario(t, cfg, 64, true)
	sameProbeResult(t, "repeat", a, b)
}

// TestShardedConservation checks the traffic ledger balances once all
// messages have resolved: everything sent was delivered, dropped, or hit a
// dead destination, with per-shard counters summing to the global truth.
func TestShardedConservation(t *testing.T) {
	for _, shards := range []int{0, 4} {
		res := runProbeScenario(t, Config{Seed: 5, Drop: 0.2, MinLatency: 1, MaxLatency: 4, Shards: shards}, 48, true)
		s := res.stats
		if s.Sent != s.Delivered+s.Dropped+s.DeadDest {
			t.Errorf("shards=%d: ledger imbalance: %+v", shards, s)
		}
		if s.WireUnits != 3*s.Sent {
			t.Errorf("shards=%d: WireUnits = %d, want %d (3 per message)", shards, s.WireUnits, 3*s.Sent)
		}
	}
}

// TestShardedSerialWindowAt pins the evFunc path: At closures run in serial
// windows at their exact times, in order, observe a consistent global
// clock, may send (drawing from the same wire streams as parallel windows),
// and may schedule further closures due inside the current window.
func TestShardedSerialWindowAt(t *testing.T) {
	for _, shards := range []int{2, 5} {
		net := New(Config{Seed: 7, Shards: shards})
		n := 16
		protos := make([]*shardProbe, n)
		for i := 0; i < n; i++ {
			a := net.AddNode()
			protos[i] = &shardProbe{peers: n, fanout: 1, maxTicks: 100}
			if err := net.Attach(a, 1, protos[i], 4, 0); err != nil {
				t.Fatal(err)
			}
		}
		var fired []int64
		net.At(10, func() {
			fired = append(fired, net.Now())
			// A closure scheduling at its own instant must still run,
			// inside this same serial window.
			net.At(10, func() { fired = append(fired, net.Now()) })
			// And a closure may inject traffic directly.
			net.Send(0, 1, 1, probeMsg{hop: 0, tag: 1234})
		})
		net.At(23, func() { fired = append(fired, net.Now()) })
		net.Run(50)
		want := []int64{10, 10, 23}
		if len(fired) != len(want) {
			t.Fatalf("shards=%d: fired %v, want %v", shards, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("shards=%d: fired %v, want %v", shards, fired, want)
			}
		}
	}
}

// TestShardedChurnHammer is the race hammer: many short Run windows with
// kills, node additions, and At closures between and during them, at a drop
// rate and latency window that keep cross-shard traffic and dead-letter
// paths hot. Run under -race it checks the barrier discipline; its result
// must also be bit-for-bit repeatable.
func TestShardedChurnHammer(t *testing.T) {
	run := func() probeResult {
		net := New(Config{Seed: 1234, Drop: 0.15, MinLatency: 1, MaxLatency: 5, Shards: 4})
		var protos []*shardProbe
		add := func() {
			a := net.AddNode()
			pr := &shardProbe{peers: 96, fanout: 3, maxTicks: 1 << 30}
			if err := net.Attach(a, 1, pr, 2, int64(a%2)); err != nil {
				t.Fatal(err)
			}
			protos = append(protos, pr)
		}
		for i := 0; i < 96; i++ {
			add()
		}
		now := int64(0)
		for step := 0; step < 40; step++ {
			now += 5
			net.Run(now)
			switch step % 4 {
			case 0:
				net.Kill(peer.Addr((step * 13) % 96))
			case 1:
				add()
			case 2:
				st := step
				net.At(now+2, func() { net.Kill(peer.Addr((st * 7) % 96)) })
			case 3:
				net.At(now+1, func() { add() })
			}
		}
		net.Run(now + 40)
		res := probeResult{stats: net.Stats(), now: net.Now(), nodes: net.NumNodes()}
		for _, pr := range protos {
			res.hashes = append(res.hashes, pr.hash)
			res.ticks = append(res.ticks, pr.ticks)
		}
		return res
	}
	a := run()
	if a.stats.Delivered == 0 || a.stats.Dropped == 0 || a.stats.DeadDest == 0 {
		t.Fatalf("hammer did not exercise all traffic paths: %+v", a.stats)
	}
	b := run()
	sameProbeResult(t, "hammer repeat", a, b)
}

// TestSerialWindowsDoNotMoveTheTrace pins that serial windows are exact
// against parallel ones under in-window randomness: the same stochastic
// workload runs once plain (no At closure, so every window is parallel) and
// once with a no-op closure due at every instant (so every window is
// serial). A node's wire-stream consumption and the summed counters must
// not depend on which windows ran serially.
func TestSerialWindowsDoNotMoveTheTrace(t *testing.T) {
	const n, horizon = 64, 220
	run := func(serial bool) (probeResult, *Network) {
		net := New(Config{Seed: 99, Drop: 0.25, MinLatency: 1, MaxLatency: 6, Shards: 4})
		protos := make([]*shardProbe, n)
		for i := range protos {
			a := net.AddNode()
			protos[i] = &shardProbe{peers: n, fanout: 2, maxTicks: 30}
			if err := net.Attach(a, 1, protos[i], 3, int64(a%3)); err != nil {
				t.Fatal(err)
			}
		}
		closures := 0
		if serial {
			for at := int64(0); at <= horizon; at++ {
				net.At(at, func() {})
				closures++
			}
		}
		events := net.Run(30) + net.Run(75) + net.Run(horizon)
		res := probeResult{stats: net.Stats(), events: events - closures, now: net.Now(), nodes: net.NumNodes()}
		for _, pr := range protos {
			res.hashes = append(res.hashes, pr.hash)
			res.ticks = append(res.ticks, pr.ticks)
		}
		return res, net
	}
	parallel, pnet := run(false)
	serial, snet := run(true)
	if parallel.stats.Dropped == 0 || parallel.stats.Delivered == 0 {
		t.Fatalf("degenerate run: %+v", parallel.stats)
	}
	// Parallel windows account per shard, serial windows globally: the
	// split shows that each run really took only its own kind of window.
	if pnet.stats != (Stats{}) {
		t.Errorf("plain run accounted %+v globally; some window ran serially", pnet.stats)
	}
	if snet.stats != serial.stats {
		t.Errorf("closure run accounted %+v globally of %+v; some window ran in parallel", snet.stats, serial.stats)
	}
	sameProbeResult(t, "serial-vs-parallel", parallel, serial)
}
