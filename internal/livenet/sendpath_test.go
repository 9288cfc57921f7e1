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
// send path reads drop probability and partition predicate, and the
// arrival path the latency window, lock-free, so this test (run under
// -race in CI) is the proof that concurrent hosts and control-plane
// writers never race — and that no message acquires Network.mu, since the
// writers never block the hosts.
func TestLiveSendPathConcurrentFaultMutation(t *testing.T) {
	const n = 48
	net, _ := buildEchoNet(t, n, Config{Seed: 31}, 2*time.Millisecond)
	net.SetLatency(0, 500*time.Microsecond)
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

	st := net.Snapshot()
	if st.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	checkConservation(t, st)
}

// floodMsg is a minimal payload for the flooding hammers.
type floodMsg struct{}

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
			ctx.Send(f.to(ctx.Self(), j), floodMsg{})
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

// buildFloodNet wires n hosts: the first n/2 flood, the rest only receive
// (a flooder is stuck in Init, so it would never take from its inbox).
func buildFloodNet(t *testing.T, n int, cfg Config, stop <-chan struct{}, to func(self peer.Addr, j int) peer.Addr) *Network {
	t.Helper()
	net := New(cfg)
	for i := 0; i < n; i++ {
		f := &flooder{stop: stop}
		if i < n/2 {
			f.to = to
		}
		if err := net.AddHost().Attach(1, f, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestLiveHeldArrivalRace hammers the held arrivals: 32 hosts flood 32
// others (one goroutine per host — the send path's concurrency contract)
// while every receiver holds what it takes from its inbox for a latency
// drawn from a window a mutator keeps swinging, under -race in CI. Each
// host's held list is its own goroutine's, and its timer is re-armed for
// earlier and later arrivals as the window moves; the conservation check
// at quiescence proves no arrival is lost between the inbox, the held
// list, and Close's drain.
func TestLiveHeldArrivalRace(t *testing.T) {
	const n = 64
	stop := make(chan struct{})
	net := buildFloodNet(t, n, Config{Seed: 77}, stop,
		func(self peer.Addr, j int) peer.Addr { return peer.Addr(n/2 + (int(self)+7*j)%(n/2)) })
	net.SetLatency(20*time.Microsecond, 400*time.Microsecond)
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}

	// Churn the latency window so due times swing between tens of
	// microseconds and tens of milliseconds, and arrivals due earlier than
	// the armed timer keep re-arming it mid-sleep.
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

	st := net.Snapshot()
	if st.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	if h := net.Held(); h != 0 {
		t.Errorf("%d arrivals still held after Close", h)
	}
	checkConservation(t, st)
}

// TestLiveHeldCloseRacesDrain closes the network while senders are still
// flooding and receivers still hold arrivals: Close must wait the hosts
// out before it drains, so every arrival held at that point is counted
// dropped exactly once, and Close neither deadlocks nor loses one.
func TestLiveHeldCloseRacesDrain(t *testing.T) {
	const n = 32
	stop := make(chan struct{})
	net := buildFloodNet(t, n, Config{Seed: 78}, stop,
		func(_ peer.Addr, j int) peer.Addr { return peer.Addr(n/2 + j%(n/2)) })
	net.SetLatency(10*time.Microsecond, 200*time.Microsecond)
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
	st := net.Snapshot()
	if st.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	if h := net.Held(); h != 0 {
		t.Errorf("%d arrivals still held after Close", h)
	}
	checkConservation(t, st)
}
