package host_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/peer"
	"repro/internal/proto"
)

// directLink hands every message straight back to Runtime.Deliver on the
// sender's goroutine, as livenet does with no latency set.
type directLink struct{ rt *host.Runtime }

func (*directLink) Start() error { return nil }
func (*directLink) Close()       {}
func (l *directLink) Send(_ *rand.Rand, from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	l.rt.Deliver(from, to, pid, msg)
}

// baton is a pooled message: retiring it returns it to the pool its next
// hop takes from, so the hand-off allocates nothing.
type baton struct{ pool *sync.Pool }

func (m *baton) Recycle() { m.pool.Put(m) }

// passer is a reactive protocol that forwards every baton it handles to
// the next host until the run has handled its quota.
type passer struct {
	next            peer.Addr
	pool            *sync.Pool
	handled         *atomic.Int64
	forwards, quota int64
	done            chan struct{}
}

func (p *passer) Init(proto.Context) {}
func (p *passer) Tick(proto.Context) {}
func (p *passer) Handle(ctx proto.Context, _ peer.Addr, _ proto.Message) {
	switch n := p.handled.Add(1); {
	case n <= p.forwards:
		ctx.Send(p.next, p.pool.Get().(*baton))
	case n == p.quota:
		close(p.done)
	}
}

// BenchmarkDeliverHandoff isolates the goroutine engines' per-message
// hand-off — Runtime.Deliver → host loop → Handle → recycle — with no link
// and no protocol work behind it: a few hosts in a ring pass one baton each
// around. One op is one message handled, so ns/op is ns/msg; at -cpu 2 the
// hosts' loops run on both cores, so anything the loops share shows here.
func BenchmarkDeliverHandoff(b *testing.B) {
	const hosts = 4
	balls := min(hosts, b.N)
	link := &directLink{}
	rt := host.New(1, 0, 2*hosts, link)
	link.rt = rt
	pool := &sync.Pool{}
	pool.New = func() any { return &baton{pool: pool} }
	var handled atomic.Int64
	done := make(chan struct{})
	for i := 0; i < hosts; i++ {
		p := &passer{next: peer.Addr((i + 1) % hosts), pool: pool, handled: &handled,
			forwards: int64(b.N - balls), quota: int64(b.N), done: done}
		if err := rt.AddHost().Attach(1, p, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < balls; i++ {
		rt.Deliver(peer.Addr(i), peer.Addr(i), 1, pool.Get().(*baton))
	}
	select {
	case <-done:
	case <-time.After(time.Minute):
		b.Fatalf("%d of %d messages handled: a baton was lost (%+v)", handled.Load(), b.N, rt.Snapshot())
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
}
