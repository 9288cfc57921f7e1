package livenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/peer"
	"repro/internal/proto"
)

// TestLiveSendPathConcurrentFaultMutation hammers the runtime-mutable
// fault model from several goroutines while every host is sending: the
// send path reads drop probability, latency window and partition predicate
// lock-free, so this test (run under -race in CI) is the proof that
// concurrent senders and control-plane writers never race — and that no
// send acquires Network.mu, since the writers never block the senders.
func TestLiveSendPathConcurrentFaultMutation(t *testing.T) {
	const n = 48
	net, _ := buildEchoNet(t, n, Config{Seed: 31, MaxLatency: 500 * time.Microsecond}, 2*time.Millisecond)
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	mutate := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	mutate(func(i int) { net.SetDrop(float64(i%10) / 20) })
	mutate(func(i int) {
		min := time.Duration(i%3) * 100 * time.Microsecond
		net.SetLatency(min, min*2)
	})
	mutate(func(i int) {
		if i%2 == 0 {
			split := peer.Addr(i % n)
			net.SetPartition(func(from, to peer.Addr) bool {
				return (from < split) != (to < split)
			})
		} else {
			net.SetPartition(nil)
		}
	})

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	net.Close()

	st := net.Stats()
	if st.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	checkConservation(t, st)
}

// wireTestMsg is a minimal payload for wire-level hammers.
type wireTestMsg struct{}

// flooder sends from its Init callback until stop closes. A protocol can
// only send from its host's callback goroutine, so n flooders are n
// concurrent senders, each on its own host — the send path's concurrency
// contract.
type flooder struct {
	stop <-chan struct{}
	to   func(self peer.Addr, j int) peer.Addr // target of the j-th send
	got  chan<- struct{}                       // signalled, without blocking, on every Handle
}

func (f *flooder) Init(ctx proto.Context) {
	for j := 0; f.to != nil; j++ {
		select {
		case <-f.stop:
			return
		default:
			ctx.Send(f.to(ctx.Self(), j), wireTestMsg{})
		}
	}
}
func (f *flooder) Tick(proto.Context) {}
func (f *flooder) Handle(proto.Context, peer.Addr, proto.Message) {
	select {
	case f.got <- struct{}{}: // a nil got never receives
	default:
	}
}

// buildFloodNet wires n flooding hosts.
func buildFloodNet(t *testing.T, n int, cfg Config, stop <-chan struct{}, to func(self peer.Addr, j int) peer.Addr) *Network {
	t.Helper()
	net := New(cfg)
	for i := 0; i < n; i++ {
		if err := net.AddHost().Attach(1, &flooder{stop: stop, to: to}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestLiveWireShardedEnqueueRace hammers the sharded wire: 64 hosts
// concurrently push latency-delayed sends (one goroutine per host — the
// send path's concurrency contract) while the sweeper harvests expired
// buckets and a mutator churns the latency window, under -race in CI's
// live job. Each sender locks only its own shard stripe, so this is the
// proof that the latency-delayed send path acquires no global mutex — the
// wire analogue of TestLiveSendPathConcurrentFaultMutation — and the
// conservation check at quiescence proves no flight is lost between the
// wheels, the sweeper's scratch buffer, and Close's drain.
func TestLiveWireShardedEnqueueRace(t *testing.T) {
	const n = 64
	stop := make(chan struct{})
	net := buildFloodNet(t, n, Config{Seed: 77, MinLatency: 20 * time.Microsecond, MaxLatency: 400 * time.Microsecond},
		stop, func(self peer.Addr, j int) peer.Addr { return peer.Addr((int(self) + 1 + 7*j) % n) })
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}

	// Churn the latency window so deadlines swing between the wheels'
	// level-0 window and the overflow level, and earlier-deadline
	// enqueues keep re-arming the sweeper mid-sleep.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				min := time.Duration(1+i%5) * 50 * time.Microsecond
				net.SetLatency(min, min*time.Duration(1+i%200))
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	net.Close()

	st := net.Stats()
	if st.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	checkConservation(t, st)
}

// TestLiveWireCloseRacesDrain closes the network while senders are still
// mid-enqueue: Close must wait the senders out before the wire drains, so
// every racing enqueue lands before the drain and is counted dropped, and
// Close neither deadlocks nor loses a flight.
func TestLiveWireCloseRacesDrain(t *testing.T) {
	const n = 32
	stop := make(chan struct{})
	net := buildFloodNet(t, n, Config{Seed: 78, MinLatency: 10 * time.Microsecond, MaxLatency: 200 * time.Microsecond},
		stop, func(_ peer.Addr, j int) peer.Addr { return peer.Addr(j % n) })
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		net.Close() // races the still-running senders
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	st := net.Stats()
	if st.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	checkConservation(t, st)
}

// TestWireWakeOnEarlierDeadline pins the wake condition the wheel API
// fixed: with the sweeper asleep toward a far deadline (5s), an enqueue
// with a strictly earlier deadline — on a different shard — must re-arm it,
// so the near flight is delivered in tens of milliseconds, not at the far
// deadline. The old check compared the new deadline against the heap head
// by value; a sweeper sleeping toward a stale deadline could miss the
// reordering entirely.
func TestWireWakeOnEarlierDeadline(t *testing.T) {
	net := New(Config{Seed: 79})
	a, b := net.AddHost(), net.AddHost()
	got := make(chan struct{}, 1)
	if err := a.Attach(1, &flooder{got: got}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	w := net.wire

	w.enqueue(5*time.Second, flight{from: a.Addr(), to: b.Addr(), pid: 1})
	time.Sleep(20 * time.Millisecond) // let the sweeper arm the 5s timer
	start := time.Now()
	w.enqueue(30*time.Millisecond, flight{from: b.Addr(), to: a.Addr(), pid: 1})

	select {
	case <-got:
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("near flight took %v; the sweeper slept toward the far deadline", waited)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("near flight never delivered: earlier-deadline enqueue did not wake the sweeper")
	}
}
