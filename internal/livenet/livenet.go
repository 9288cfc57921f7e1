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
// (SetLatency) on sharded timing wheels harvested by one sweeper goroutine
// — the only goroutine here that is not a host. The scenario layer
// (scenario.go) drives both during campaign runs.
package livenet

import (
	"math"
	"math/rand"
	"runtime"
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
func New(cfg Config) *Network { return newNetwork(cfg, wireShardCount()) }

func newNetwork(cfg Config, wireShards int) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	n := &Network{wire: newWire(wireShards)}
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
// on sharded timing wheels. Each shard is a calendar queue (internal/sched)
// of in-flight messages keyed on nanoseconds since the wire's epoch,
// guarded by its own mutex, and a single sweeper goroutine harvests expired
// entries from every shard. Senders hash to a shard by their own address,
// so concurrent latency-delayed sends from different hosts never contend on
// one lock — the old single `wire.mu` + container/heap was the last global
// mutex on the live data plane (and its interface{} boxing the last
// reflection on the send path). Replacing per-message time.AfterFunc with
// the wheels also keeps shutdown deterministic — Close drains the shards
// and counts stranded messages as dropped — and scales to 10k+ hosts
// without a timer goroutine per message.
type wire struct {
	rt *host.Runtime
	// lat is read lock-free on every send.
	lat    atomic.Pointer[latencyWindow]
	epoch  time.Time // monotonic zero for wheel deadlines
	shards []wireShard
	mask   uint32
	wake   chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup // the sweeper
	// scratch collects due flights under each shard lock so delivery (and
	// message recycling) runs with no lock held. Sweeper-goroutine-only.
	scratch []flight
}

// wireShard is one lock-striped timing wheel. next is the earliest deadline
// the sweeper has promised to service for this shard (MaxInt64 when it
// believes the shard is empty); an enqueue with a strictly earlier deadline
// must wake the sweeper, and only such an enqueue must — comparing against
// the sweeper's promise rather than the heap head fixes the old wake check
// (`w.heap[0].at == at`), which compared by value and could both miss a new
// earliest deadline and fire spuriously on ties.
//
// No padding against false sharing: sched.Queue is several cache lines of
// slice headers on its own, so adjacent shards' hot words already land on
// distinct lines.
type wireShard struct {
	mu   sync.Mutex
	q    sched.Queue[flight]
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
// longer latencies route through the wheels' overflow level.
const (
	wireShift   = 17
	wireBuckets = 512
)

// wireShardCount picks a power-of-two shard count: enough stripes that
// GOMAXPROCS concurrently sending hosts rarely collide, bounded so the
// sweeper's per-pass scan stays trivial.
func wireShardCount() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

func newWire(shardCount int) *wire {
	w := &wire{
		epoch:  time.Now(),
		shards: make([]wireShard, shardCount),
		mask:   uint32(shardCount - 1),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	for i := range w.shards {
		w.shards[i].q = *sched.New[flight](wireShift, wireBuckets)
		w.shards[i].next = math.MaxInt64
	}
	return w
}

// Start launches the sweeper.
func (w *wire) Start() error {
	w.wg.Add(1)
	go w.loop()
	return nil
}

// Send draws the message's latency from the sender's send-RNG (after the
// runtime's drop draw, so one private stream serves both) and delivers it,
// directly or through the wheels.
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

// enqueue schedules delivery after delay on the sender's shard. Lock-free
// with respect to every other sender outside the shard stripe: the only
// mutex taken is the shard's own, and the sweeper is woken only when this
// deadline is strictly earlier than the one it is sleeping toward.
func (w *wire) enqueue(delay time.Duration, f flight) {
	at := int64(time.Since(w.epoch) + delay)
	s := &w.shards[uint32(f.from)&w.mask]
	s.mu.Lock()
	s.q.Push(at, f)
	earlier := at < s.next
	if earlier {
		s.next = at
	}
	s.mu.Unlock()
	if earlier {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// loop is the sweeper: it harvests every shard's expired buckets into a
// scratch buffer, delivers outside the locks, then sleeps until the
// earliest pending deadline (or a wake from an earlier enqueue). It exits
// on stop; Close then drains what remains.
func (w *wire) loop() {
	defer w.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := int64(time.Since(w.epoch))
		next := int64(math.MaxInt64)
		w.scratch = w.scratch[:0]
		for i := range w.shards {
			s := &w.shards[i]
			s.mu.Lock()
			w.scratch = s.q.AppendDue(now, w.scratch)
			if t, ok := s.q.PeekTime(); ok {
				s.next = t
				if t < next {
					next = t
				}
			} else {
				s.next = math.MaxInt64
			}
			s.mu.Unlock()
		}
		for i, f := range w.scratch {
			w.rt.Deliver(f.from, f.to, f.pid, f.msg)
			w.scratch[i] = flight{}
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
// wheels are drained, but the drain takes the shard locks anyway so a
// straggling enqueue (only a test driving the wire directly can make one)
// cannot race the teardown accounting.
func (w *wire) Close() {
	close(w.stop)
	w.wg.Wait()
	for i := range w.shards {
		s := &w.shards[i]
		s.mu.Lock()
		s.q.Drain(func(f flight) { w.rt.Drop(f.msg) })
		s.next = math.MaxInt64
		s.mu.Unlock()
	}
}
