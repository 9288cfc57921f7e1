// Allocation regression guards for the two tightest hot paths. The
// benchmarks report the same numbers, but benchmarks don't fail CI;
// these tests pin the budgets so a future PR cannot silently regress
// steady-state allocation behaviour.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
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
	// Warm: queue and message pool reach steady-state size. One full lap
	// of the calendar queue's 256-slot bucket ring (256 virtual time
	// units), so every ring slot has grown to its high-water capacity
	// before measurement.
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
// pre-pooling baseline was 11.
const maxTickAllocs = 1.0

// TestCreateMessageViaTickAllocs pins message construction at its pooled
// allocation budget (see BenchmarkCreateMessageViaTick for the ns/op view).
func TestCreateMessageViaTickAllocs(t *testing.T) {
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
	// Warm scratch buffers, the message pool, and one full lap of the
	// calendar queue's 256-slot bucket ring (each tick instant lands in a
	// fresh ring slot until the cursor wraps).
	net.Run(cfg.Delta * 300)
	avg := testing.AllocsPerRun(100, func() {
		net.Run(net.Now() + cfg.Delta)
	})
	if avg > maxTickAllocs {
		t.Errorf("tick allocates %.2f objects, want at most %v", avg, maxTickAllocs)
	}
}
