// Package simnet provides a deterministic discrete-event network simulator,
// the substrate this repository uses in place of the paper's PeerSim. It
// models virtual time, per-message latency, uniform message drop (the
// paper's unreliable-UDP failure model), and node churn, and it drives
// protocol state machines attached to simulated nodes.
//
// Determinism: all randomness flows from the Config seed, and the event
// queue breaks time ties by insertion sequence, so a run is a pure function
// of its configuration.
package simnet

import (
	"fmt"
	"math/rand"

	"repro/internal/peer"
	"repro/internal/proto"
)

// Message, Sizer, ProtoID and Protocol are the engine-neutral contract
// defined in package proto; the aliases keep engine call sites readable.
type (
	// Message is a protocol payload delivered between nodes.
	Message = proto.Message
	// Sizer reports a message's wire size for traffic accounting.
	Sizer = proto.Sizer
	// ProtoID distinguishes the protocol stacks running on one node.
	ProtoID = proto.ProtoID
	// Protocol is a passive state machine driven by the engine.
	Protocol = proto.Protocol
)

// Config parameterises a simulated network.
type Config struct {
	// Seed drives all randomness in the network. Two networks with equal
	// configs and equal workloads produce identical runs.
	Seed int64
	// Drop is the probability that any single message is lost in
	// transit. The paper's Figure 4 uses 0.2.
	Drop float64
	// MinLatency and MaxLatency bound the uniform message latency in
	// virtual time units. Zero values mean instant delivery (latency 1,
	// so a message never arrives at its send instant).
	MinLatency, MaxLatency int64
	// Shards, when greater than 1, partitions the nodes across that many
	// parallel execution shards: each shard runs its own calendar wheel
	// inside fixed conservative lookahead windows and the shards exchange
	// generated events at window barriers (see shard.go). 0 or 1 selects
	// the sequential engine, the golden reference. Both engines run the
	// same dispatch and Send.
	//
	// Determinism: a sharded run is a pure function of the configuration,
	// and for workloads whose engine-level randomness is never consulted
	// mid-window — Drop == 0 and a fixed latency, which includes the
	// default instant-delivery config — the trace is byte-identical to
	// the sequential engine for every shard count. With Drop > 0 or a
	// latency window, in-flight draws come from per-node wire RNGs
	// instead of the global stream (and a latency draw of 0 is clamped to
	// 1), so runs remain deterministic and shard-count invariant for every
	// Shards > 1, but diverge from the sequential (Shards <= 1) trace.
	Shards int
}

type eventKind uint8

const (
	evTick eventKind = iota + 1
	evMessage
	evFunc
	// evInit fires a binding's Init and schedules its first tick. A
	// dedicated kind (not an evFunc closure) so the sharded engine can
	// dispatch node starts in parallel windows: the event names its owner
	// node, and dispatching it touches only that node's state.
	evInit
)

type event struct {
	time int64
	seq  uint64
	kind eventKind

	to   peer.Addr
	pid  ProtoID
	from peer.Addr
	msg  Message

	fn func()
}

// binding is one protocol instance bound to a node, its tick period, and
// its pre-built callback context. Bindings are stored by value in a small
// per-node slice sorted by ProtoID (two entries in a typical deployment:
// sampling under bootstrap), replacing the per-node map whose header and
// bucket overhead dominated engine memory at 2^18 nodes.
type binding struct {
	pid    ProtoID
	proto  Protocol
	period int64
	ctx    Context
}

// nodeState is stored by value in the network's node table, so a node
// costs its bindings and RNG — no per-node box, no map header.
type nodeState struct {
	alive    bool
	rng      *rand.Rand
	bindings []binding
	// shard is the node's home execution shard (sharded mode only): the
	// shard that dispatches its events and owns its mutable state.
	shard int32
	// wire draws the node's in-window drop and latency decisions in
	// sharded mode. Per node — not per shard, not global — so the stream
	// each node consumes is independent of the shard count.
	wire wireRNG
}

// find returns the binding for pid, or nil. The slice is sorted by pid but
// holds so few entries that a linear scan beats a binary search.
func (st *nodeState) find(pid ProtoID) *binding {
	for i := range st.bindings {
		if st.bindings[i].pid == pid {
			return &st.bindings[i]
		}
	}
	return nil
}

// Stats aggregates network traffic counters.
type Stats struct {
	Sent      int64 // messages handed to the network
	Dropped   int64 // messages lost by the drop model
	Delivered int64 // messages that reached a live destination
	DeadDest  int64 // messages addressed to dead or unknown nodes
	WireUnits int64 // cumulative size of sent messages (descriptor units)
}

// runMode tracks what the engine is doing, so Send and Context.Now can
// route state reads and writes to the right owner. It only ever changes on
// the driving goroutine while no shard worker runs, so workers observing it
// mid-window always see a stable value. The sequential engine never leaves
// modeIdle.
type runMode uint8

const (
	// modeIdle: between Run windows; harness calls mutate global state.
	modeIdle runMode = iota
	// modeParallel: shard workers dispatch concurrently; generated events
	// buffer in per-shard lists until the window barrier.
	modeParallel
	// modeSerial: a window containing evFunc events runs single-threaded
	// in global (time, seq) order, exactly like the sequential engine.
	modeSerial
)

// Network is a deterministic discrete-event simulated network.
type Network struct {
	cfg       Config
	rng       *rand.Rand
	now       int64
	seq       uint64
	queue     eventQueue
	nodes     []nodeState
	stats     Stats
	linkFault func(from, to peer.Addr) bool

	// Sharded-execution state; shards is nil in sequential mode.
	shards []shardState
	// coord holds evFunc events (At closures), which may touch arbitrary
	// state and therefore never run inside a parallel window: any window
	// with a due coord event runs serially instead.
	coord eventQueue
	mode  runMode
	// minPeriod is the smallest positive tick period ever attached; it
	// bounds the conservative lookahead window alongside the latency
	// floor (see lookahead).
	minPeriod int64
	// mergeHeads is the barrier merge's reusable per-shard cursor slice.
	mergeHeads []int
}

// New returns an empty network with the given configuration.
func New(cfg Config) *Network {
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	if cfg.Shards < 0 {
		cfg.Shards = 0
	}
	n := &Network{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Shards > 1 {
		n.shards = make([]shardState, cfg.Shards)
		for i := range n.shards {
			n.shards[i].queue.init(queueBuckets(cfg))
		}
		n.coord.init(queueBuckets(cfg))
		return n
	}
	n.queue.init(queueBuckets(cfg))
	return n
}

// queueBuckets derives the calendar queue's level-0 window from the
// config's latency bound instead of assuming the default 256-instant
// geometry. Buckets stay one instant wide — intra-bucket order is then
// insertion order by construction — and the ring is widened until the
// scheduling horizon (messages up to MaxLatency ahead, ticks a few periods
// ahead) fits comfortably inside level 0, so a long-latency configuration
// does not cycle every message through the overflow level. Pop order is
// independent of the geometry (see internal/sched), so this cannot perturb
// a golden trace.
func queueBuckets(cfg Config) int {
	const (
		defaultBuckets = 256
		maxBuckets     = 1 << 16
	)
	buckets := defaultBuckets
	for int64(buckets) < 4*cfg.MaxLatency && buckets < maxBuckets {
		buckets <<= 1
	}
	return buckets
}

// Now returns the current virtual time.
func (n *Network) Now() int64 { return n.now }

// Stats returns a snapshot of the traffic counters. In sharded mode the
// per-shard counters are summed in — integer sums, so the totals are
// independent of which shard accounted each message.
func (n *Network) Stats() Stats {
	s := n.stats
	for i := range n.shards {
		sh := &n.shards[i].stats
		s.Sent += sh.Sent
		s.Dropped += sh.Dropped
		s.Delivered += sh.Delivered
		s.DeadDest += sh.DeadDest
		s.WireUnits += sh.WireUnits
	}
	return s
}

// AddNode allocates a new live node and returns its address.
func (n *Network) AddNode() peer.Addr {
	addr := peer.Addr(len(n.nodes))
	st := nodeState{
		alive: true,
		rng:   rand.New(rand.NewSource(n.rng.Int63())),
	}
	if len(n.shards) > 0 {
		// Home shard and wire stream are pure functions of (seed, addr):
		// deterministic, and the wire stream is shard-count independent.
		st.shard = int32(splitmix64(uint64(n.cfg.Seed)^uint64(addr)*0x9e3779b97f4a7c15) % uint64(len(n.shards)))
		st.wire = newWireRNG(uint64(n.cfg.Seed), uint64(addr))
	}
	n.nodes = append(n.nodes, st)
	return addr
}

// NumNodes returns the number of addresses ever allocated (live or dead).
func (n *Network) NumNodes() int { return len(n.nodes) }

// Alive reports whether the node at addr is live.
func (n *Network) Alive(addr peer.Addr) bool {
	return n.valid(addr) && n.nodes[addr].alive
}

// Kill marks the node dead: pending and future events addressed to it are
// discarded. Messages it already sent remain in flight.
func (n *Network) Kill(addr peer.Addr) {
	if n.valid(addr) {
		n.nodes[addr].alive = false
	}
}

// Attach binds a protocol instance to a node. The protocol's Init runs at
// startOffset, and Tick fires every period after that. Attaching with period
// zero installs a purely reactive protocol (Handle only, after Init).
//
// The binding lands in the node's pid-sorted binding slice. The slice may
// move when a later Attach appends to it, so the scheduled evInit event
// re-resolves the binding by (addr, pid) at fire time instead of capturing
// a pointer into it.
func (n *Network) Attach(addr peer.Addr, pid ProtoID, p Protocol, period, startOffset int64) error {
	if !n.valid(addr) {
		return fmt.Errorf("attach: unknown address %d", addr)
	}
	st := &n.nodes[addr]
	if st.find(pid) != nil {
		return fmt.Errorf("attach: protocol %d already bound at address %d", pid, addr)
	}
	st.bindings = append(st.bindings, binding{
		pid:    pid,
		proto:  p,
		period: period,
		ctx:    Context{net: n, self: addr, pid: pid},
	})
	for i := len(st.bindings) - 1; i > 0 && st.bindings[i].pid < st.bindings[i-1].pid; i-- {
		st.bindings[i], st.bindings[i-1] = st.bindings[i-1], st.bindings[i]
	}
	if period > 0 && (n.minPeriod == 0 || period < n.minPeriod) {
		n.minPeriod = period
	}
	n.push(nil, event{time: n.now + startOffset, kind: evInit, to: addr, pid: pid})
	return nil
}

// At schedules fn to run at the given absolute virtual time. Times in the
// past run at the current instant, after already-queued events.
func (n *Network) At(t int64, fn func()) {
	if t < n.now {
		t = n.now
	}
	n.push(nil, event{time: t, kind: evFunc, fn: fn})
}

// SetLinkFault installs a per-link fault predicate: messages for which fn
// returns true are dropped (and counted as drops). Pass nil to clear. Used
// to model network partitions and asymmetric link failures.
func (n *Network) SetLinkFault(fn func(from, to peer.Addr) bool) {
	n.linkFault = fn
}

// Partition installs a link fault that cuts traffic between nodes in
// different groups. Nodes absent from every group stay connected to
// everyone.
func (n *Network) Partition(groups ...[]peer.Addr) {
	assignment := make(map[peer.Addr]int)
	for g, members := range groups {
		for _, a := range members {
			assignment[a] = g
		}
	}
	n.SetLinkFault(func(from, to peer.Addr) bool {
		gf, okf := assignment[from]
		gt, okt := assignment[to]
		return okf && okt && gf != gt
	})
}

// Send transmits msg from one node to another, applying the drop and
// latency models. It is normally called through a Context.
//
// Counters, clock and random stream follow the engine's mode. Idle, or on
// the sequential engine, Send accounts globally and draws from the global
// stream. Inside any sharded window it draws from the sender's wire stream
// — serial windows included, so a node's stream consumption is independent
// of which windows happened to run serially — and in a parallel window it
// also accounts to the sender's shard, reads that shard's clock and buffers
// the message until the window barrier. The link-fault predicate, if any,
// must be safe for concurrent calls.
func (n *Network) Send(from, to peer.Addr, pid ProtoID, msg Message) {
	stats, now := &n.stats, n.now
	var sh *shardState // non-nil: buffer for the barrier
	var wire *wireRNG  // non-nil: draw from the sender's stream
	if n.mode != modeIdle {
		st := &n.nodes[from]
		wire = &st.wire
		if n.mode == modeParallel {
			sh = &n.shards[st.shard]
			stats, now = &sh.stats, sh.now
		}
	}
	stats.Sent++
	if s, ok := msg.(Sizer); ok {
		stats.WireUnits += int64(s.WireSize())
	}
	if n.linkFault != nil && n.linkFault(from, to) {
		stats.Dropped++
		recycle(msg)
		return
	}
	if n.cfg.Drop > 0 {
		var u float64
		if wire != nil {
			u = wire.float64()
		} else {
			u = n.rng.Float64()
		}
		if u < n.cfg.Drop {
			stats.Dropped++
			recycle(msg)
			return
		}
	}
	delay := int64(1) // instant delivery: never at the send instant itself
	if lo, hi := n.cfg.MinLatency, n.cfg.MaxLatency; hi > 0 {
		delay = lo
		if span := hi - lo + 1; span > 1 {
			if wire == nil {
				delay += n.rng.Int63n(span)
			} else {
				// Clamped to at least 1 so a generated message always
				// lands strictly beyond the window that generated it. (The
				// sequential engine permits a 0 draw when MinLatency == 0
				// < MaxLatency; the sharded engine cannot, and documents
				// the clamp on Config.Shards.)
				delay = max(delay+wire.int63n(span), 1)
			}
		}
	}
	n.push(sh, event{
		time: now + delay,
		kind: evMessage,
		to:   to, pid: pid, from: from, msg: msg,
	})
}

// Run processes events until virtual time reaches until (inclusive) or the
// queue drains. It returns the number of events processed.
func (n *Network) Run(until int64) int {
	if len(n.shards) > 0 {
		return n.runSharded(until)
	}
	processed := 0
	for n.queue.len() > 0 && n.queue.peekTime() <= until {
		e := n.queue.pop()
		n.now = e.time
		n.dispatch(e, &n.stats, nil)
		processed++
	}
	if n.now < until {
		n.now = until
	}
	return processed
}

// dispatch runs one event: on the sequential engine and in serial windows
// with the global counters and sh == nil, in a parallel window with the
// dispatching shard's counters and sh. Only evInit, evTick and evMessage
// reach shard wheels (push routes evFunc to the coordinator), and each
// touches only the destination node's state, which that shard owns.
func (n *Network) dispatch(e event, stats *Stats, sh *shardState) {
	switch e.kind {
	case evFunc:
		e.fn()
	case evInit:
		st := &n.nodes[e.to]
		if !st.alive {
			return
		}
		b := st.find(e.pid)
		if b == nil {
			return
		}
		b.proto.Init(&b.ctx)
		if b.period > 0 {
			n.push(sh, event{time: e.time + b.period, kind: evTick, to: e.to, pid: e.pid})
		}
	case evTick:
		st := &n.nodes[e.to]
		if !st.alive {
			return
		}
		b := st.find(e.pid)
		if b == nil {
			return
		}
		b.proto.Tick(&b.ctx)
		n.push(sh, event{time: e.time + b.period, kind: evTick, to: e.to, pid: e.pid})
	case evMessage:
		if !n.valid(e.to) || !n.nodes[e.to].alive {
			stats.DeadDest++
			recycle(e.msg)
			return
		}
		b := n.nodes[e.to].find(e.pid)
		if b == nil {
			stats.DeadDest++
			recycle(e.msg)
			return
		}
		stats.Delivered++
		b.proto.Handle(&b.ctx, e.from, e.msg)
		recycle(e.msg)
	}
}

// recycle retires a message: pooled messages return their backing storage
// to the sender's pool (see proto.Recyclable). Called exactly once per
// message, after delivery or on any drop path; events abandoned in the
// queue at the end of a run are simply collected by the GC instead.
func recycle(m Message) {
	if r, ok := m.(proto.Recyclable); ok {
		r.Recycle()
	}
}

// push enqueues a generated event. With sh set — a parallel window — it
// buffers the event for the barrier, tagged with the (time, seq) of the
// event being dispatched; the lookahead invariant (generated events land
// strictly beyond the window) is what licenses running the window's shards
// concurrently, so violating it is an engine bug worth dying for. Otherwise
// it stamps the next global insertion sequence and, in sharded mode, routes
// to the event's owner: evFunc events to the serial coordinator queue, node
// events to their node's home-shard wheel.
func (n *Network) push(sh *shardState, e event) {
	if sh != nil {
		if e.time <= sh.wend {
			panic("simnet: generated event lands inside its own lookahead window")
		}
		sh.gen = append(sh.gen, genEvent{ptime: sh.now, pseq: sh.curSeq, ev: e})
		return
	}
	e.seq = n.seq
	n.seq++
	if len(n.shards) == 0 {
		n.queue.push(e)
		return
	}
	if e.kind == evFunc {
		n.coord.push(e)
		return
	}
	n.shards[n.nodes[e.to].shard].queue.push(e)
}

func (n *Network) valid(addr peer.Addr) bool {
	return addr >= 0 && int(addr) < len(n.nodes)
}

// Context is the simulator's implementation of proto.Context: the node's
// own address, the virtual clock, a per-node deterministic RNG, and the
// ability to send messages. Contexts live inside binding values; callbacks
// receive a pointer valid for the duration of the call.
type Context struct {
	net  *Network
	self peer.Addr
	pid  ProtoID
}

var _ proto.Context = (*Context)(nil)

// Self returns the node's own address.
func (c *Context) Self() peer.Addr { return c.self }

// Now returns the current virtual time: inside a parallel window, the
// dispatching shard's local clock; otherwise the global clock.
func (c *Context) Now() int64 {
	n := c.net
	if n.mode == modeParallel {
		return n.shards[n.nodes[c.self].shard].now
	}
	return n.now
}

// Rand returns the node's private deterministic random source.
func (c *Context) Rand() *rand.Rand { return c.net.nodes[c.self].rng }

// Send transmits msg to the same protocol binding on the destination node.
func (c *Context) Send(to peer.Addr, msg Message) {
	c.net.Send(c.self, to, c.pid, msg)
}
