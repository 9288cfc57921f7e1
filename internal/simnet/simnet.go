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
// configuration — the same function for every shard count (see shard.go).
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
	// Shards, when greater than 1, splits each instant's dispatch across
	// that many parallel workers, node addr on worker addr mod Shards; the
	// events they generate are replayed in the sequential order when the
	// instant ends (see shard.go). 0 or 1 dispatches on the driving
	// goroutine. Every value yields the same run, drops included.
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
	rng       *rand.Rand // drop draws and per-node seeds
	now       int64
	queue     sched.Queue[event]
	nodes     []nodeState
	stats     Stats
	linkFault func(from, to peer.Addr) bool

	// shards is nil unless Config.Shards > 1: the dispatch workers.
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
// workers' delivery counters are summed in.
func (n *Network) Stats() Stats {
	s := n.stats
	for i := range n.shards {
		s.Delivered += n.shards[i].stats.Delivered
		s.DeadDest += n.shards[i].stats.DeadDest
	}
	return s
}

// AddNode allocates a new live node and returns its address.
func (n *Network) AddNode() peer.Addr {
	addr := peer.Addr(len(n.nodes))
	n.nodes = append(n.nodes, nodeState{
		alive: true,
		rng:   id.NewRand(n.rng.Int63()),
	})
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
	at := n.now + startOffset
	n.queue.Push(at, event{time: at, kind: evInit, to: addr, pid: pid})
	return nil
}

// SetLinkFault installs a per-link fault predicate: messages for which fn
// returns true are dropped (and counted as drops). Pass nil to clear. Used
// to model network partitions and asymmetric link failures. The predicate
// runs on the goroutine that calls Run, on every engine.
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
// Inside a sharded step it only buffers the message; the step's merge
// routes it in the sequential order.
func (n *Network) Send(from, to peer.Addr, pid ProtoID, msg Message) {
	e := event{time: n.now + 1, kind: evMessage, to: to, pid: pid, from: from, msg: msg}
	if n.parallel {
		n.home(from).buffer(e)
		return
	}
	n.route(e)
}

// route is the one send path: it accounts the message, applies the link
// fault and the drop draw, and enqueues the survivor.
func (n *Network) route(e event) {
	n.stats.Sent++
	if s, ok := e.msg.(Sizer); ok {
		n.stats.WireUnits += int64(s.WireSize())
	}
	if n.linkFault != nil && n.linkFault(e.from, e.to) ||
		n.cfg.Drop > 0 && n.rng.Float64() < n.cfg.Drop {
		n.stats.Dropped++
		recycle(e.msg)
		return
	}
	n.queue.Push(e.time, e)
}

// Run processes events until virtual time reaches until (inclusive) or the
// queue drains, one step per instant: the clock moves to the earliest
// pending instant and every event due then is dispatched — in push order
// on the driving goroutine, or split across the shard workers (see
// shard.go). It returns the number of events processed.
func (n *Network) Run(until int64) int {
	processed := 0
	for {
		t, ok := n.queue.PeekTime()
		if !ok || t > until {
			break
		}
		n.now = t
		if n.shards == nil {
			processed += n.dispatchDue(t)
		} else {
			processed += n.step(t)
		}
	}
	if n.now < until {
		n.now = until
	}
	return processed
}

// dispatchDue pops and dispatches every event due at t, in push order: the
// sequential engine's whole step.
func (n *Network) dispatchDue(t int64) int {
	count := 0
	for ; ; count++ {
		if pt, ok := n.queue.PeekTime(); !ok || pt > t {
			return count
		}
		e, _ := n.queue.Pop()
		n.dispatch(e, nil)
	}
}

// dispatch runs one event. Each event touches only its destination node's
// state. sh is the shard worker running it, nil on the sequential engine:
// it takes the delivery counters and the rescheduled ticks.
func (n *Network) dispatch(e event, sh *shardState) {
	stats := &n.stats
	if sh != nil {
		stats = &sh.stats
	}
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
			n.tick(sh, event{time: e.time + b.period, kind: evTick, to: e.to, pid: e.pid})
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
		n.tick(sh, event{time: e.time + b.period, kind: evTick, to: e.to, pid: e.pid})
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

// tick schedules a binding's next tick, or buffers it for the merge when
// a shard worker is dispatching.
func (n *Network) tick(sh *shardState, e event) {
	if sh != nil {
		sh.buffer(e)
		return
	}
	n.queue.Push(e.time, e)
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
