// Package livenet is a concurrent in-memory network runtime: one goroutine
// per host — exactly one: deliveries and the host's own tick schedule are
// steps of the same loop — drives the same protocol state machines that run
// under the deterministic simulator, over a channel-based transport with
// optional loss, latency, and bounded inboxes (UDP-like semantics). It
// demonstrates that the protocol implementations are engine-agnostic and
// exercises them under real concurrency; run the tests with -race.
//
// The host lifecycle — Pause/Resume (freeze a host between callbacks, e.g.
// for a consistent whole-network measurement), Kill/Respawn (crash-recovery
// churn) — the tick schedule, the loss and partition model (SetDrop,
// SetPartition) and the traffic accounting are internal/host's, shared with
// the socket engine. This package owns only its link: pointer handoff
// between goroutines, delayed by a runtime-mutable latency window
// (SetLatency) on one timing wheel harvested by one sweeper goroutine
// — the only goroutine here that is not a host. The scenario layer
// (scenario.go) drives both during campaign runs.
package livenet

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/host"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sched"
)

// Config parameterises the runtime. Drop and the latency bounds are only
// the initial fault model; SetDrop/SetLatency/SetPartition change it while
// the network runs.
type Config struct {
	// Seed drives the loss and latency models and per-host RNGs.
	Seed int64
	// Drop is the per-message loss probability.
	Drop float64
	// MinLatency and MaxLatency bound the uniform delivery latency.
	MinLatency, MaxLatency time.Duration
	// InboxSize bounds each host's message queue; messages arriving at
	// a full inbox are dropped, as UDP would. Zero selects 256.
	InboxSize int
}

// The host lifecycle types are internal/host's.
type (
	// Host is one node: a mailbox plus the protocols attached to it.
	Host = host.Host
	// Stats is a snapshot of the network traffic counters.
	Stats = host.Stats
	// HostStats is a per-host traffic snapshot.
	HostStats = host.HostStats
)

// ErrClosed is returned by Start and Respawn after Close.
var ErrClosed = host.ErrClosed

// latencyWindow is an immutable [min, max] delivery latency pair; SetLatency
// swaps the whole window atomically so senders never observe a torn pair.
type latencyWindow struct {
	min, max time.Duration
}

// Network is a concurrent in-memory network of hosts: the shared host
// runtime over the in-memory wire.
type Network struct {
	*host.Runtime
	wire *wire
}

// New returns a network ready for AddHost/Attach; call Start to run it.
func New(cfg Config) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	n := &Network{wire: newWire()}
	n.Runtime = host.New(cfg.Seed, cfg.Drop, cfg.InboxSize, n.wire)
	n.wire.rt = n.Runtime
	n.SetLatency(cfg.MinLatency, cfg.MaxLatency)
	return n
}

// SetLatency changes the delivery latency window at runtime.
func (n *Network) SetLatency(min, max time.Duration) {
	if max < min {
		max = min
	}
	n.wire.lat.Store(&latencyWindow{min: min, max: max})
}

// wire is livenet's host.Link: a message with no latency to serve is handed
// straight back to the runtime, the rest wait out their propagation delay
// on one timing wheel — a calendar queue (internal/sched) of in-flight
// messages keyed on nanoseconds since the wire's epoch — harvested by a
// single sweeper goroutine. One mutex guards the wheel and next: lock
// stripes keyed on the sender were measured slower than this one lock at 2,
// 4 and 8 parallel senders (BenchmarkWireEnqueueParallel). The wheel,
// rather than a time.AfterFunc per message, keeps shutdown deterministic —
// Close drains it and counts stranded messages as dropped — and scales to
// 10k+ hosts without a timer goroutine per message.
type wire struct {
	rt *host.Runtime
	// lat is read lock-free on every send.
	lat   atomic.Pointer[latencyWindow]
	epoch time.Time // monotonic zero for wheel deadlines
	wake  chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup // the sweeper

	mu sync.Mutex
	q  sched.Queue[flight] // guarded by mu
	// next is the earliest deadline the sweeper has promised to service
	// (MaxInt64 when it believes the wheel is empty); an enqueue with a
	// strictly earlier deadline must wake the sweeper, and only such an
	// enqueue must. Guarded by mu.
	next int64
}

// flight is one message in flight: the arguments of the Deliver it is
// waiting for.
type flight struct {
	from, to peer.Addr
	pid      proto.ProtoID
	msg      proto.Message
}

// Wheel geometry: 2^17 ns (~131 µs) buckets, 512 of them — a ~67 ms window
// covering the latency configs the campaigns run (100 µs – a few ms);
// longer latencies route through the wheel's overflow level.
const (
	wireShift   = 17
	wireBuckets = 512
)

func newWire() *wire {
	return &wire{
		epoch: time.Now(),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		q:     *sched.New[flight](wireShift, wireBuckets),
		next:  math.MaxInt64,
	}
}

// Start launches the sweeper.
func (w *wire) Start() error {
	w.wg.Add(1)
	go w.loop()
	return nil
}

// Send draws the message's latency from the sender's send-RNG (after the
// runtime's drop draw, so one private stream serves both) and delivers it,
// directly or through the wheel.
func (w *wire) Send(rng *rand.Rand, from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	var lat time.Duration
	if win := w.lat.Load(); win.max > 0 {
		span := int64(win.max - win.min)
		lat = win.min
		if span > 0 {
			lat += time.Duration(rng.Int63n(span + 1))
		}
	}
	if lat <= 0 {
		w.rt.Deliver(from, to, pid, msg)
		return
	}
	w.enqueue(lat, flight{from: from, to: to, pid: pid, msg: msg})
}

// enqueue schedules delivery after delay. The sweeper is woken only when
// this deadline is strictly earlier than the one it is sleeping toward.
func (w *wire) enqueue(delay time.Duration, f flight) {
	at := int64(time.Since(w.epoch) + delay)
	w.mu.Lock()
	w.q.Push(at, f)
	earlier := at < w.next
	if earlier {
		w.next = at
	}
	w.mu.Unlock()
	if earlier {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// loop is the sweeper: it harvests the wheel's expired buckets into a
// scratch buffer, delivers outside the lock, then sleeps until the
// earliest pending deadline (or a wake from an earlier enqueue). It exits
// on stop; Close then drains what remains.
func (w *wire) loop() {
	defer w.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// due collects expired flights under mu so delivery (and message
	// recycling) runs with no lock held.
	var due []flight
	for {
		now := int64(time.Since(w.epoch))
		w.mu.Lock()
		due = w.q.AppendDue(now, due[:0])
		next := int64(math.MaxInt64)
		if t, ok := w.q.PeekTime(); ok {
			next = t
		}
		w.next = next
		w.mu.Unlock()
		for i, f := range due {
			w.rt.Deliver(f.from, f.to, f.pid, f.msg)
			due[i] = flight{}
		}
		sleep := time.Hour
		if next != math.MaxInt64 {
			sleep = time.Duration(next - int64(time.Since(w.epoch)))
			if sleep < 0 {
				sleep = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-w.stop:
			return
		case <-w.wake:
		case <-timer.C:
		}
	}
}

// Close stops the sweeper and counts every message still in flight as
// dropped. The hosts have exited and the sweeper is gone by the time the
// wheel is drained, but the drain takes the lock anyway so a straggling
// enqueue (only a test driving the wire directly can make one) cannot race
// the teardown accounting.
func (w *wire) Close() {
	close(w.stop)
	w.wg.Wait()
	w.mu.Lock()
	w.q.Drain(func(f flight) { w.rt.Drop(f.msg) })
	w.next = math.MaxInt64
	w.mu.Unlock()
}
