// Package simnet provides a deterministic discrete-event network simulator,
// the substrate this repository uses in place of the paper's PeerSim. It
// models virtual time, uniform message drop (the paper's unreliable-UDP
// failure model), link faults and node churn, and it drives protocol state
// machines attached to simulated nodes.
//
// Delivery rule: a message sent at instant t that survives the link-fault
// predicate and the drop model arrives at t+1 — the paper's cycle model, in
// which an exchange completes well inside one period. There is no latency
// model here; the host runtime under the goroutine engines (livenet and
// the socket transport) injects latency where a campaign needs it.
//
// Determinism: all randomness flows from the Config seed, and the event
// queue breaks time ties by push order, so a run is a pure function of its
// configuration.
package simnet

import (
	"fmt"
	"math/rand"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sched"
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
	// Shards, when greater than 1, partitions the nodes across that many
	// parallel execution shards: each shard holds its own calendar wheel,
	// the shards dispatch each instant's events concurrently and exchange
	// the events they generated when the instant ends (see shard.go). 0 or
	// 1 selects the sequential engine, the golden reference. Both engines
	// run the same dispatch and Send.
	//
	// Determinism: a sharded run is a pure function of the configuration.
	// With Drop == 0 the engine draws no randomness of its own and the
	// trace is byte-identical to the sequential engine for every shard
	// count. With Drop > 0 the drop draws come from per-node wire RNGs
	// instead of the global stream, so runs remain deterministic and
	// shard-count invariant for every Shards > 1, but diverge from the
	// sequential (Shards <= 1) trace.
	Shards int
}

type eventKind uint8

const (
	evTick eventKind = iota + 1
	evMessage
	// evInit fires a binding's Init and schedules its first tick. The
	// event names its owner node, and dispatching it touches only that
	// node's state, so the sharded engine dispatches node starts in
	// parallel like any other event.
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
	// wire draws the drop decisions for the node's messages on the sharded
	// engine. Per node — not per shard, not global — so the stream each
	// node consumes is independent of the shard count.
	wire id.SplitMix64
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

// Network is a deterministic discrete-event simulated network.
type Network struct {
	cfg       Config
	rng       *rand.Rand
	now       int64
	seq       uint64
	queue     sched.Queue[event] // the sequential engine's wheel
	nodes     []nodeState
	stats     Stats
	linkFault func(from, to peer.Addr) bool

	// shards is nil in sequential mode; in sharded mode each shard's wheel
	// holds the events addressed to its nodes.
	shards []shardState
	// parallel is set while shard workers dispatch an instant. It only
	// changes on the driving goroutine while no worker runs, so Send sees
	// a stable value.
	parallel bool
}

// New returns an empty network with the given configuration.
func New(cfg Config) *Network {
	n := &Network{
		cfg: cfg,
		rng: id.NewRand(cfg.Seed),
	}
	if cfg.Shards > 1 {
		n.shards = make([]shardState, cfg.Shards)
	}
	return n
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
		rng:   id.NewRand(n.rng.Int63()),
	}
	if len(n.shards) > 0 {
		// The wire stream is a pure function of (seed, addr), so the
		// stream each node consumes is independent of the shard count.
		// The home shard is its first output, drawn from a copy.
		st.wire.Seed(int64(uint64(n.cfg.Seed) ^ (uint64(addr)+1)*0xbf58476d1ce4e5b9))
		home := st.wire
		st.shard = int32(home.Uint64() % uint64(len(n.shards)))
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
// startOffset from now, and Tick fires every period after that. Attaching
// with period zero installs a purely reactive protocol (Handle only, after
// Init). Like every harness call it runs between Run calls.
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
	n.push(nil, event{time: n.now + startOffset, kind: evInit, to: addr, pid: pid})
	return nil
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

// Send transmits msg from one node to another under the engine's one
// delivery rule: it is lost to the link-fault predicate or the drop model,
// or it arrives at the next instant. It is normally called through a
// Context; called between Run calls, it injects a message from the harness.
//
// Drops are drawn from the global stream on the sequential engine and from
// the sender's wire stream on the sharded one. Inside a sharded step Send
// also accounts to the sender's shard and buffers the message for the
// step's merge. The link-fault predicate, if any, must be safe for
// concurrent calls.
func (n *Network) Send(from, to peer.Addr, pid ProtoID, msg Message) {
	stats := &n.stats
	var sh *shardState // non-nil: a sharded step is dispatching
	if n.parallel {
		sh = &n.shards[n.nodes[from].shard]
		stats = &sh.stats
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
		if len(n.shards) > 0 {
			u = float64(n.nodes[from].wire.Uint64()>>11) / (1 << 53)
		} else {
			u = n.rng.Float64()
		}
		if u < n.cfg.Drop {
			stats.Dropped++
			recycle(msg)
			return
		}
	}
	n.push(sh, event{
		time: n.now + 1,
		kind: evMessage,
		to:   to, pid: pid, from: from, msg: msg,
	})
}

// Run processes events until virtual time reaches until (inclusive) or the
// queue drains, one step per instant: the clock moves to the earliest
// pending instant and every event due then is dispatched — in insertion
// order on the sequential engine, shard by shard in parallel on the sharded
// one (see shard.go). It returns the number of events processed.
func (n *Network) Run(until int64) int {
	processed := 0
	for {
		t, ok := n.earliest()
		if !ok || t > until {
			break
		}
		n.now = t
		if len(n.shards) == 0 {
			processed += n.dispatchDue(t, nil)
		} else {
			processed += n.step(t)
		}
	}
	if n.now < until {
		n.now = until
	}
	return processed
}

// earliest returns the time of the earliest pending event, if any.
func (n *Network) earliest() (int64, bool) {
	if len(n.shards) == 0 {
		return n.queue.PeekTime()
	}
	var t int64
	found := false
	for i := range n.shards {
		if pt, ok := n.shards[i].queue.PeekTime(); ok && (!found || pt < t) {
			t, found = pt, true
		}
	}
	return t, found
}

// dispatchDue pops and dispatches every event due at or before t: the
// sequential engine's whole step (sh == nil: the global wheel and
// counters), or one shard's share of a sharded step (its own wheel and
// counters).
func (n *Network) dispatchDue(t int64, sh *shardState) int {
	q, stats := &n.queue, &n.stats
	if sh != nil {
		q, stats = &sh.queue, &sh.stats
	}
	count := 0
	for {
		if pt, ok := q.PeekTime(); !ok || pt > t {
			return count
		}
		e, _ := q.Pop()
		if sh != nil {
			sh.curSeq = e.seq
		}
		n.dispatch(e, stats, sh)
		count++
	}
}

// dispatch runs one event with the counters and shard dispatchDue chose.
// Each event touches only its destination node's state, which that shard
// owns.
func (n *Network) dispatch(e event, stats *Stats, sh *shardState) {
	switch e.kind {
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

// push enqueues a generated event. With sh set — a sharded step — it
// buffers the event for the step's merge, its seq holding the seq of the
// event being dispatched (the merge key). Otherwise it stamps the next
// global insertion sequence and enqueues on the sequential wheel or, in
// sharded mode, on the wheel of the event's home shard.
func (n *Network) push(sh *shardState, e event) {
	if sh != nil {
		e.seq = sh.curSeq
		sh.gen = append(sh.gen, e)
		return
	}
	e.seq = n.seq
	n.seq++
	if len(n.shards) == 0 {
		n.queue.Push(e.time, e)
		return
	}
	n.shards[n.nodes[e.to].shard].queue.Push(e.time, e)
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

// Now returns the current virtual time. A step dispatches a single instant,
// so every shard reads the one clock.
func (c *Context) Now() int64 { return c.net.now }

// Rand returns the node's private deterministic random source.
func (c *Context) Rand() *rand.Rand { return c.net.nodes[c.self].rng }

// Send transmits msg to the same protocol binding on the destination node.
func (c *Context) Send(to peer.Addr, msg Message) {
	c.net.Send(c.self, to, c.pid, msg)
}
