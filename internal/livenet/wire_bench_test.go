package livenet

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/peer"
)

// BenchmarkWireEnqueueParallel measures the latency-delayed enqueue path
// under concurrency — the operation the old single `wire.mu` serialised.
// shards=1 is that old regime (every sender contending on one lock over one
// wheel); shards=N is the sharded wire as shipped. On a multi-core runner
// the sharded variant should scale with senders while shards=1 flatlines;
// CI's bench job records both in BENCH_pr5.json. Enqueue is called
// directly so the benchmark isolates wheel insertion + wake arbitration
// from the fault model.
func BenchmarkWireEnqueueParallel(b *testing.B) {
	for _, shards := range []int{1, wireShardCount()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const hosts = 256
			net := newNetwork(Config{Seed: 91}, shards)
			for i := 0; i < hosts; i++ {
				net.AddHost()
			}
			if err := net.Start(); err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			w := net.wire
			var nextHost atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				from := peer.Addr(int(nextHost.Add(1)-1) % hosts)
				f := flight{from: from, to: (from + 1) % hosts, pid: 1, msg: wireTestMsg{}}
				delay := 200 * time.Microsecond
				for pb.Next() {
					w.enqueue(delay, f)
				}
			})
		})
	}
}
