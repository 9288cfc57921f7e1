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
// so traffic flows both directions through every merge.
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
// plus (optionally) kills and joins between Run calls, where harness calls
// go — and returns the full observable result. The workload is a pure
// function of cfg, so results are comparable across shard counts.
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
	events := 0
	for _, stop := range []struct {
		at    int64
		churn func()
	}{
		{25, func() { net.Kill(peer.Addr(1 % n)); net.Kill(peer.Addr(7 % n)) }},
		{30, func() { net.Kill(peer.Addr(5 % n)); addProbe() }},
		{40, func() { addProbe(); addProbe() }},
		{61, func() { net.Kill(peer.Addr(net.NumNodes() - 1)) }},
		{75, nil},
		{220, nil},
	} {
		events += net.Run(stop.at)
		if churn && stop.churn != nil {
			stop.churn()
		}
	}
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

// TestShardedMatchesSequential pins the engine's contract: a sharded run is
// the sequential run, byte for byte, for every shard count, through churn
// between Run calls and with the drop model drawing. Shards 0 and 1 both
// take the sequential path.
func TestShardedMatchesSequential(t *testing.T) {
	for _, drop := range []float64{0, 0.25} {
		cfg := Config{Seed: 42, Drop: drop}
		for _, n := range []int{5, 64} {
			for _, churn := range []bool{false, true} {
				ref := runProbeScenario(t, cfg, n, churn)
				if ref.stats.Sent == 0 || ref.stats.Delivered == 0 || (drop > 0) != (ref.stats.Dropped > 0) {
					t.Fatalf("drop=%v n=%d: degenerate reference run: %+v", drop, n, ref.stats)
				}
				for _, shards := range []int{1, 2, 3, 4, 7, 8} {
					sharded := cfg
					sharded.Shards = shards
					got := runProbeScenario(t, sharded, n, churn)
					sameProbeResult(t, fmt.Sprintf("drop=%v/n=%d/churn=%v/shards=%d", drop, n, churn, shards), ref, got)
				}
			}
		}
	}
}

// TestShardedInvarianceStochastic runs the probe with every engine path hot
// — drops, dead destinations, cross-shard replies — and checks that the
// sequential run and every shard count agree, and that a run repeats.
func TestShardedInvarianceStochastic(t *testing.T) {
	cfg := Config{Seed: 99, Drop: 0.25}
	ref := runProbeScenario(t, cfg, 64, true)
	if ref.stats.Dropped == 0 {
		t.Fatal("stochastic scenario dropped nothing; drop path untested")
	}
	if ref.stats.DeadDest == 0 {
		t.Fatal("churn scenario hit no dead destinations; kill path untested")
	}
	for _, shards := range []int{2, 3, 4, 8} {
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

// deadSender sends one message to a fixed address from its Init.
type deadSender struct{ to peer.Addr }

func (p deadSender) Init(ctx proto.Context)                       { ctx.Send(p.to, probeMsg{}) }
func (deadSender) Tick(proto.Context)                             {}
func (deadSender) Handle(proto.Context, peer.Addr, proto.Message) {}

// TestSendToUnallocatedAddress checks that a message to an address no node
// holds is a dead destination on every engine, whether a protocol sends it
// inside a step (to peer.NoAddr) or the harness injects it between Run
// calls (to an address past the node table).
func TestSendToUnallocatedAddress(t *testing.T) {
	for _, shards := range []int{0, 2, 4} {
		net := New(Config{Seed: 3, Shards: shards})
		a, b := net.AddNode(), net.AddNode()
		if err := net.Attach(b, 1, deadSender{to: peer.NoAddr}, 0, 0); err != nil {
			t.Fatal(err)
		}
		net.Run(1)
		net.Send(a, 1000, 1, probeMsg{})
		net.Run(5)
		if s := net.Stats(); s.Sent != 2 || s.DeadDest != 2 {
			t.Errorf("shards=%d: stats = %+v, want 2 sent, 2 dead destinations", shards, s)
		}
	}
}

// TestShardedConservation checks the traffic ledger balances once all
// messages have resolved: everything sent was delivered, dropped, or hit a
// dead destination, with per-shard counters summing to the global truth.
func TestShardedConservation(t *testing.T) {
	for _, shards := range []int{0, 4} {
		res := runProbeScenario(t, Config{Seed: 5, Drop: 0.2, Shards: shards}, 48, true)
		s := res.stats
		if s.Sent != s.Delivered+s.Dropped+s.DeadDest {
			t.Errorf("shards=%d: ledger imbalance: %+v", shards, s)
		}
		if s.WireUnits != 3*s.Sent {
			t.Errorf("shards=%d: WireUnits = %d, want %d (3 per message)", shards, s.WireUnits, 3*s.Sent)
		}
	}
}

// TestShardedChurnHammer is the race hammer: many short Run calls with
// kills, node additions and injected messages between them, at a drop rate
// that keeps cross-shard traffic and dead-letter paths hot. Run under
// -race it checks the step discipline; its result must also be bit-for-bit
// repeatable.
func TestShardedChurnHammer(t *testing.T) {
	run := func() probeResult {
		net := New(Config{Seed: 1234, Drop: 0.15, Shards: 4})
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
				// Injected between steps, the message takes the
				// sequential send path: drop draw, then the queue.
				net.Send(peer.Addr(step%96), peer.Addr((step*7)%96), 1, probeMsg{hop: 1, tag: int64(step)})
			case 3:
				net.Run(now + 2)
				net.Kill(peer.Addr((step * 7) % 96))
				add()
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

// splitmix64 is one step of the reference SplitMix64 generator from state
// x: the value it returns after adding the Weyl increment.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
