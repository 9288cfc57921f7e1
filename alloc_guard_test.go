// Allocation regression guards for the tightest hot paths. The
// benchmarks report the same numbers, but benchmarks don't fail CI;
// these tests pin the budgets so a future PR cannot silently regress
// steady-state allocation behaviour.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/testenv"
)

// TestEventLoopZeroAllocs pins raw event-loop dispatch — tick, enqueue,
// pop, deliver with a trivial protocol — at exactly zero allocations per
// cycle in steady state, the pooled event queue's contract.
func TestEventLoopZeroAllocs(t *testing.T) {
	const nodes = 64
	net := simnet.New(simnet.Config{Seed: 23})
	addrs := make([]peer.Addr, nodes)
	for i := range addrs {
		addrs[i] = net.AddNode()
	}
	for i, a := range addrs {
		p := &pingProto{target: addrs[(i+1)%nodes]}
		if err := net.Attach(a, 1, p, 10, int64(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: the message pool and the event queue reach steady-state size.
	// The queue's ring of one-instant buckets doubles until it spans every
	// pending event and keeps arrays only for occupied buckets, so 3000
	// instants leave it at its steady size with every array it draws
	// already grown.
	net.Run(3000)
	avg := testing.AllocsPerRun(50, func() {
		net.Run(net.Now() + 10)
	})
	if avg != 0 {
		t.Errorf("event loop allocates %.2f objects per cycle, want 0", avg)
	}
}

// maxTickAllocs bounds a full protocol Tick — selectPeer plus pooled
// createMessage plus engine dispatch. The steady state is zero; the slack
// of one absorbs a GC emptying the message pool mid-measurement. The
// pre-pooling baseline was 11. TestNewscastExchangeAllocs holds a NEWSCAST
// cycle to the same budget.
const maxTickAllocs = 1.0

// TestCreateMessageViaTickAllocs pins message construction at its pooled
// allocation budget (see BenchmarkCreateMessageViaTick for the ns/op view).
func TestCreateMessageViaTickAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector allocates on its own account and sync.Pool drops Puts under it")
	}
	descs, _ := benchWorld(4096, 4)
	cfg := core.DefaultConfig()
	oracle := sampling.NewOracle(descs, 5)
	net := simnet.New(simnet.Config{Seed: 6})
	addr := net.AddNode()
	self := peer.Descriptor{ID: descs[0].ID, Addr: addr}
	nd, err := core.NewNode(self, cfg, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(addr, core.ProtoID, nd, cfg.Delta, 0); err != nil {
		t.Fatal(err)
	}
	nd.Leaf().Update(descs[1:100])
	nd.Table().AddAll(descs)
	// Warm scratch buffers, the message pool and the event queue, whose
	// ring of one-instant buckets sizes itself to the pending events.
	net.Run(cfg.Delta * 300)
	avg := testing.AllocsPerRun(100, func() {
		net.Run(net.Now() + cfg.Delta)
	})
	if avg > maxTickAllocs {
		t.Errorf("tick allocates %.2f objects, want at most %v", avg, maxTickAllocs)
	}
}

// TestNewscastExchangeAllocs pins a whole NEWSCAST cycle on simnet — every
// node's request, the answers and both merges — at the pooled budget: each
// message comes from the package pool and the engine recycles it after
// Handle, and merge builds views in buffers it already holds.
func TestNewscastExchangeAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector allocates on its own account and sync.Pool drops Puts under it")
	}
	const nodes, delta = 256, 10
	net := simnet.New(simnet.Config{Seed: 29})
	ids := id.Unique(nodes, 30)
	descs := make([]peer.Descriptor, nodes)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	for i, d := range descs {
		p := newscast.New(d, descs[:5], newscast.DefaultViewSize)
		if err := net.Attach(d.Addr, newscast.ProtoID, p, delta, int64(i)*delta/nodes); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: views fill, every merge buffer reaches viewSize, and the pool
	// and the self-sizing event queue reach their steady size.
	net.Run(delta * 30)
	avg := testing.AllocsPerRun(50, func() {
		net.Run(net.Now() + delta)
	})
	if avg > maxTickAllocs {
		t.Errorf("a NEWSCAST cycle of %d nodes allocates %.2f objects, want at most %v", nodes, avg, maxTickAllocs)
	}
}
