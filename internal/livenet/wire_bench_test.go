package livenet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/peer"
)

// BenchmarkWireEnqueueParallel measures the latency-delayed enqueue path
// under concurrency: every sender contends on the wire's one lock over its
// one wheel. Run with -cpu 1,2,4 to see the enqueue cost as senders grow.
// Enqueue is called directly so the benchmark isolates wheel insertion +
// wake arbitration from the fault model.
func BenchmarkWireEnqueueParallel(b *testing.B) {
	const hosts = 256
	net := New(Config{Seed: 91})
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
}
