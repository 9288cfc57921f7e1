// Package host is the one host runtime under the goroutine engines: the
// lifecycle the paper's protocol needs from "a machine" — a mailbox, a
// periodic tick, send-a-message-to-an-address — written once. livenet and
// transport differ only in how a message travels, so each supplies a Link
// and nothing else.
//
// The Runtime owns everything up to "this message passed the fault model
// and must reach address to", and the delay it waits out on arrival: the
// host table and per-host RNG seeding, the closing/started handshake, the
// runtime-mutable fault model (drop probability, partition cut, latency
// window) and the four conserved traffic counters. A Host is one goroutine
// per incarnation and no other: it owns a bounded inbox whose storage grows
// to what it holds (see mailbox), the arrivals it holds for their injected
// latency, its protocol bindings and their tick schedule (see step), the
// Pause/Resume handshake, Kill/Respawn, and the exactly-once retirement of
// proto.Recyclable messages. Close ends every incarnation the way Kill ends
// one, so the host loop waits only on channels its host owns: no channel
// every host shares is locked per message. The Link does the rest — a
// pointer handoff, or encode → peer loop → socket → decode — and hands
// arrivals back through Runtime.Deliver.
//
// The link's half of the seam is Link itself plus Deliver, Drop and
// Overflow; everything else exported here is the lifecycle API the engines
// re-export.
package host

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
)

// Link is how a message travels between hosts: the only thing an engine
// supplies. Every message handed to Send must end in exactly one of
// Runtime.Deliver, Runtime.Drop or Runtime.Overflow, so the conservation
// law documented on Stats holds for any link.
type Link interface {
	// Start brings the link up (bind sockets, launch its goroutines). It
	// is called once, by Runtime.Start, before any host goroutine runs; an
	// error aborts Start and leaves the runtime unstarted.
	Start() error
	// Send carries msg towards to. The message has already been counted
	// Sent and passed the fault model, and to is a known address. Send
	// runs on the sending host's callback goroutine and must not block.
	Send(from, to peer.Addr, pid proto.ProtoID, msg proto.Message)
	// Close stops the link's goroutines, waits for them, and settles what
	// is stranded in flight as dropped. Runtime.Close calls it once, after
	// every host goroutine has exited — no Send is running and none will
	// follow — whether or not Start was ever called.
	Close()
}

// Stats is a snapshot of the network traffic counters. At quiescence
// (after Close) the counters are conserved:
//
//	Sent == Delivered + Dropped + Overflow
//
// Every sent message is eventually dispatched to a protocol (Delivered),
// rejected by the fault model, addressed to a dead or unknown host, lost
// on the link, stranded in flight at shutdown or held for its latency by a
// host that is killed or closed (Dropped), or bounced off a full inbox or
// link queue (Overflow). Under the socket engine sends and
// outcomes are counted on different processes, so there the law holds for
// the sum over all processes.
type Stats struct {
	Sent      int64
	Dropped   int64
	Delivered int64
	Overflow  int64
}

// Add accumulates another snapshot's counters: across the processes of a
// socket campaign, or across the trials of a live one.
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Dropped += o.Dropped
	s.Delivered += o.Delivered
	s.Overflow += o.Overflow
}

// HostStats is a per-host traffic snapshot.
type HostStats struct {
	// Delivered counts messages dispatched to this host's protocols.
	Delivered int64
	// Overflow counts messages bounced off this host's full inbox.
	Overflow int64
	// Ticks counts protocol tick callbacks run on this host.
	Ticks int64
	// Incarnations counts how many times the host has been (re)started.
	Incarnations int64
}

// ErrClosed is returned by Start and Respawn after Close.
var ErrClosed = errors.New("host: network closed")

// partitionFunc is a cut predicate; see SetPartition.
type partitionFunc func(from, to peer.Addr) bool

// latencyWindow is an immutable [min, max] delivery latency pair; SetLatency
// swaps the whole window atomically so no host observes a torn pair.
type latencyWindow struct {
	min, span int64 // nanoseconds; span = max - min
}

// Runtime is a network of hosts over one Link.
//
// The message path is deliberately lock-free: the fault model lives in
// atomics (drop probability as float bits, the partition predicate and the
// latency window behind atomic pointers) and every draw comes from a host's
// private send-RNG — the sender's for loss, the receiver's for latency — so
// concurrent hosts never serialise on Runtime.mu.
// The mutex only guards cold control-plane state: host registration and
// the closing handshake.
type Runtime struct {
	link      Link
	inboxSize int

	mu      sync.Mutex
	rng     *rand.Rand // guarded by mu: host seeding (AddHost/AddRemote, pre-Start)
	hosts   []*Host    // index = address, nil for remote; append-only before Start, read lock-free afterwards
	local   []*Host    // the non-nil subset, in address order
	wg      sync.WaitGroup
	closed  atomic.Bool
	closing bool // guarded by mu: no wg.Add once set
	started atomic.Bool
	start   time.Time
	noTicks atomic.Bool // StopTicks: retire the tick schedules

	// Mutable fault model, read lock-free on every send and arrival.
	dropBits  atomic.Uint64 // math.Float64bits of the drop probability
	partition atomic.Pointer[partitionFunc]
	latency   atomic.Pointer[latencyWindow] // nil: arrivals are dispatched at once

	sent, dropped, delivered, overflow atomic.Int64
	held                               atomic.Int64 // arrivals waiting out their latency
}

// DefaultInboxSize is the inbox bound New gives every host when asked for
// none: zero or less.
const DefaultInboxSize = 256

// New returns a runtime over link, ready for AddHost/Attach; call Start to
// run it. seed drives the per-host RNGs and the sender-side loss model,
// drop is the initial per-message loss probability, and inboxSize bounds
// each host's message queue exactly (DefaultInboxSize if it is zero or
// less).
func New(seed int64, drop float64, inboxSize int, link Link) *Runtime {
	if inboxSize <= 0 {
		inboxSize = DefaultInboxSize
	}
	r := &Runtime{
		link:      link,
		inboxSize: inboxSize,
		rng:       id.NewRand(seed),
	}
	r.dropBits.Store(math.Float64bits(drop))
	return r
}

// AddHost allocates a host at the next address. All hosts must be added,
// and their protocols attached, before Start.
//
// Each host owns two RNGs, each an 8-byte id.SplitMix64 behind a
// *rand.Rand; their seeds are two draws per address, in address order,
// from the shared seed.
func (r *Runtime) AddHost() *Host {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &Host{
		rt:      r,
		addr:    peer.Addr(len(r.hosts)),
		inbox:   newMailbox(r.inboxSize),
		rng:     id.NewRand(r.rng.Int63()),
		sendRNG: id.NewRand(r.rng.Int63()),
		ctrl:    make(chan ctrlMsg),
		inc:     newIncarnation(),
	}
	r.hosts = append(r.hosts, h)
	r.local = append(r.local, h)
	return h
}

// AddRemote reserves the next address for a host owned by another process:
// sends to it reach the Link, but no host is allocated here. Its two seed
// draws are still consumed, which keeps the stream aligned so a host's
// seeds do not depend on how many processes the campaign is sharded over.
func (r *Runtime) AddRemote() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng.Int63()
	r.rng.Int63()
	r.hosts = append(r.hosts, nil)
}

// LocalHosts returns the hosts this runtime owns, in address order.
func (r *Runtime) LocalHosts() []*Host { return r.local }

// Local reports whether addr is a host this runtime owns.
func (r *Runtime) Local(addr peer.Addr) bool {
	return int(addr) >= 0 && int(addr) < len(r.hosts) && r.hosts[addr] != nil
}

// SetDrop changes the per-message loss probability at runtime.
func (r *Runtime) SetDrop(p float64) { r.dropBits.Store(math.Float64bits(p)) }

// SetPartition installs a cut predicate: messages for which fn(from, to)
// reports true are dropped on the sender, before they reach the link.
// Passing nil heals the partition. fn must be pure, fast, and safe for
// concurrent use; it is called lock-free on the sender's goroutine. Every
// process of a socket campaign must install the same predicate for a
// coherent global partition.
func (r *Runtime) SetPartition(fn func(from, to peer.Addr) bool) {
	if fn == nil {
		r.partition.Store(nil)
		return
	}
	pf := partitionFunc(fn)
	r.partition.Store(&pf)
}

// SetLatency changes the delivery latency window at runtime: from now on
// each arrival a host takes from its inbox waits a delay drawn uniformly
// from [lo, hi] (hi below lo reads as lo) before it is dispatched. A
// window of zero removes the delay; arrivals already held keep their due
// times.
func (r *Runtime) SetLatency(lo, hi time.Duration) {
	lo = max(lo, 0)
	if hi = max(hi, lo); hi == 0 {
		r.latency.Store(nil)
		return
	}
	r.latency.Store(&latencyWindow{min: int64(lo), span: int64(hi - lo)})
}

// Held returns how many arrivals the hosts hold for their latency: counted
// Sent, not yet given an outcome. A quiescent network holds none.
func (r *Runtime) Held() int64 { return r.held.Load() }

// StopTicks retires every host's tick schedule without touching the hosts:
// queued and in-flight traffic keeps flowing and replies are still
// generated, but no Init or Tick runs again and so no new gossip rounds
// start. It is the first step of the socket engine's quiesce protocol and
// is irreversible for the runtime's lifetime.
func (r *Runtime) StopTicks() { r.noTicks.Store(true) }

// command is one delivery queued for a host goroutine.
type command struct {
	from peer.Addr
	pid  proto.ProtoID
	msg  proto.Message
}

// mailboxChan is the most slots a host's inbox channel preallocates. Inbox
// depth is shallow in practice (churn-live at N=2048 queued its 95 806
// arrivals into an empty inbox 99 % of the time and never more than 8
// deep), so the channel alone carries the traffic and the spill behind it
// absorbs the rare burst.
const mailboxChan = 16

// mailbox is a host's bounded inbox, whose storage follows what it holds:
// a channel of at most mailboxChan slots that the host loop selects on, and
// behind it a spill ring, grown on demand up to the rest of the bound. A
// bound of mailboxChan or less is the channel alone.
//
// Four rules keep it a FIFO queue of exactly bound arrivals:
//   - While the spill holds anything (spilled > 0), an arrival queues behind
//     it, so no arrival overtakes an earlier one from the same sender.
//   - Whenever mu is released, the spill is empty or the channel is full:
//     the host tops the channel up after each receive, and a producer right
//     after it spills (the host may have emptied the channel since the
//     producer's send failed). So no arrival waits in the spill behind an
//     empty channel the host is blocked on.
//   - Channel plus spill never exceeds the bound.
//   - The host takes one arrival per select pass, from the channel (a
//     batch would starve its tick schedule), and Kill, Respawn and Close
//     drain both parts, each arrival once.
type mailbox struct {
	ch      chan command
	spilled atomic.Int32 // len of the spill; written under mu, read lock-free
	limit   int          // the spill's bound: bound - cap(ch)

	mu    sync.Mutex
	spill []command // a ring of spilled arrivals, guarded by mu
	head  int       // index of the oldest spilled arrival
}

func newMailbox(bound int) mailbox {
	c := min(bound, mailboxChan)
	return mailbox{ch: make(chan command, c), limit: bound - c}
}

// put enqueues c, reporting false if the mailbox is full. While the spill
// is empty it is one atomic load and a single-case non-blocking send.
func (m *mailbox) put(c command) bool {
	if m.spilled.Load() == 0 {
		select {
		case m.ch <- c:
			return true
		default:
		}
	}
	return m.spillPut(c)
}

// spillPut queues c in the spill, behind what it holds, and tops the
// channel up; it reports false if channel and spill are both full.
func (m *mailbox) spillPut(c command) bool {
	if m.limit == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.move()
	n := int(m.spilled.Load())
	if n == m.limit {
		return false
	}
	if n == len(m.spill) {
		m.grow()
	}
	m.spill[(m.head+n)%len(m.spill)] = c
	m.spilled.Store(int32(n + 1))
	m.move()
	return true
}

// topUp moves what fits from the spill into the channel: the host calls it
// after each receive. While the spill is empty it is one atomic load.
func (m *mailbox) topUp() {
	if m.spilled.Load() > 0 {
		m.refill()
	}
}

// refill is topUp's locked half, out of line so that topUp inlines.
func (m *mailbox) refill() {
	m.mu.Lock()
	m.move()
	m.mu.Unlock()
}

// move moves spilled arrivals, oldest first, into the channel until it is
// full or the spill is empty. The caller holds mu.
func (m *mailbox) move() {
	for n := m.spilled.Load(); n > 0; n-- {
		select {
		case m.ch <- m.spill[m.head]:
		default:
			return
		}
		m.spill[m.head] = command{}
		m.head = (m.head + 1) % len(m.spill)
		m.spilled.Store(n - 1)
	}
}

// grow doubles the spill ring, from 4 slots up to limit, keeping the
// spilled arrivals in order from index 0. The caller holds mu.
func (m *mailbox) grow() {
	n := int(m.spilled.Load())
	ring := make([]command, min(max(4, 2*len(m.spill)), m.limit))
	for i := 0; i < n; i++ {
		ring[i] = m.spill[(m.head+i)%len(m.spill)]
	}
	m.spill, m.head = ring, 0
}

// binding is one (protocol, schedule) pair, stored by value in the host's
// pid-sorted bindings slice — the slice is the only protocol registry (no
// shadow map), and at the two-or-three bindings a bootstrap host carries a
// linear scan of a contiguous value slice beats a map lookup while costing
// a single allocation for the whole registry. The slice is sealed at Start
// (Attach refuses a started runtime) and a binding never changes after
// it: what moves — when each is next due — lives in the incarnation's
// schedule, on the host goroutine. ctx is the binding's proto.Context,
// built once by Attach: callbacks get &ctx, which is stable once the slice
// is sealed, so no callback boxes a fresh context.
type binding struct {
	pid    proto.ProtoID
	p      proto.Protocol
	period time.Duration
	offset time.Duration
	ctx    hostContext
}

// never is the due time of a binding with nothing scheduled.
const never = time.Duration(math.MaxInt64)

// step advances an incarnation's schedule to now and returns the earliest
// due time left, never if nothing is scheduled. sched[i] is when bs[i]'s
// next callback is due, measured from the start of the incarnation: its
// offset means Init — every later time lies beyond it — then a Tick every
// period, or never again for a reactive binding (period zero). A due
// binding owes exactly one callback however late it is, fired in pid order.
// Its next one keeps the phase (next+period) while that is still ahead of
// now and otherwise lands a full period after now — so a host that fell
// behind, or sat parked through a measurement, resumes at its period
// rather than firing a catch-up gossip storm of stale ticks.
func step(bs []binding, sched []time.Duration, now time.Duration, fire func(b *binding, init bool)) (wake time.Duration) {
	wake = never
	for i := range sched {
		next, b := &sched[i], &bs[i]
		if *next <= now {
			fire(b, *next == b.offset)
			if b.period == 0 {
				*next = never
			} else if *next += b.period; *next <= now {
				*next = now + b.period
			}
		}
		wake = min(wake, *next)
	}
	return wake
}

// incarnation is one life of a host: the channels that end it, and the
// arrivals it holds for their latency. Kill closes down and waits for
// exited; Respawn installs a fresh incarnation.
type incarnation struct {
	down     chan struct{}
	downOnce sync.Once
	exited   chan struct{}
	running  bool // goroutine launched (guarded by Host.mu)
	// held is ordered by due time, latest first, so the next one due is
	// last. The host goroutine owns it while it runs; once exited is
	// closed, whoever drains the incarnation takes it under Host.mu.
	held []arrival
}

// arrival is one delivery held until due, in time since the incarnation's
// epoch.
type arrival struct {
	due time.Duration
	cmd command
}

func newIncarnation() *incarnation {
	return &incarnation{down: make(chan struct{}), exited: make(chan struct{})}
}

func (inc *incarnation) kill() { inc.downOnce.Do(func() { close(inc.down) }) }

func (inc *incarnation) dead() bool {
	select {
	case <-inc.down:
		return true
	default:
		return false
	}
}

// ctrlMsg is a pause/resume handshake. ack is closed by the host goroutine
// once the command takes effect.
type ctrlMsg struct {
	pause bool
	ack   chan struct{}
}

// Host is one node: a mailbox plus the protocols attached to it. All
// protocol callbacks run on the host's single goroutine.
type Host struct {
	rt    *Runtime
	addr  peer.Addr
	inbox mailbox
	rng   *rand.Rand
	// sendRNG draws this host's outbound drops and the latency of its
	// arrivals. It is distinct from the protocol-visible rng and is only
	// touched from the host's own goroutine, so neither path needs a lock.
	sendRNG *rand.Rand
	// bindings is sorted by pid and sealed at Runtime.Start; it doubles as
	// the dispatch table (find) and the tick schedule's periods and offsets.
	bindings []binding
	ctrl     chan ctrlMsg

	mu  sync.Mutex // lifecycle state
	inc *incarnation

	delivered, overflow, ticks, incarnations atomic.Int64
}

// hostContext implements proto.Context for host callbacks; one per
// binding so Send routes to the caller's own protocol on the peer.
type hostContext struct {
	h   *Host
	pid proto.ProtoID
}

var _ proto.Context = (*hostContext)(nil)

func (c *hostContext) Self() peer.Addr  { return c.h.addr }
func (c *hostContext) Now() int64       { return time.Since(c.h.rt.start).Milliseconds() }
func (c *hostContext) Rand() *rand.Rand { return c.h.rng }
func (c *hostContext) Send(to peer.Addr, msg proto.Message) {
	c.h.rt.send(c.h, to, c.pid, msg)
}

// Addr returns the host's address.
func (h *Host) Addr() peer.Addr { return h.addr }

// Stats returns the host's per-host counters.
func (h *Host) Stats() HostStats {
	return HostStats{
		Delivered:    h.delivered.Load(),
		Overflow:     h.overflow.Load(),
		Ticks:        h.ticks.Load(),
		Incarnations: h.incarnations.Load(),
	}
}

// Attach binds a protocol to the host. period zero installs a purely
// reactive protocol. It returns an error once the runtime has started:
// the host goroutine reads the sealed bindings slice without a lock.
func (h *Host) Attach(pid proto.ProtoID, p proto.Protocol, period, offset time.Duration) error {
	// Under the runtime mutex, which Start holds while it launches the
	// hosts: an Attach either completes before any goroutine reads the
	// slice or observes started.
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	if h.rt.started.Load() {
		return fmt.Errorf("host attach: protocol %d at host %d: network already started", pid, h.addr)
	}
	if h.find(pid) != nil {
		return fmt.Errorf("host attach: protocol %d already bound at host %d", pid, h.addr)
	}
	h.bindings = append(h.bindings, binding{pid: pid, p: p, period: period, offset: offset, ctx: hostContext{h: h, pid: pid}})
	for i := len(h.bindings) - 1; i > 0 && h.bindings[i].pid < h.bindings[i-1].pid; i-- {
		h.bindings[i], h.bindings[i-1] = h.bindings[i-1], h.bindings[i]
	}
	return nil
}

// find returns the binding for pid, or nil. The returned pointer is stable
// once the network has started (the slice is sealed at Start).
func (h *Host) find(pid proto.ProtoID) *binding {
	for i := range h.bindings {
		if h.bindings[i].pid == pid {
			return &h.bindings[i]
		}
	}
	return nil
}

// Kill crashes the host: its goroutine exits, its tick schedule with it,
// and messages addressed to it are dropped. It waits for the host goroutine
// to finish its current callback, so the host's protocol state may be
// inspected safely afterwards, and drains messages already queued in the
// inbox or held for their latency, counting them as dropped. Safe to call
// multiple times and safe to call concurrently with Respawn and with
// senders.
func (h *Host) Kill() {
	for {
		h.mu.Lock()
		inc := h.inc
		h.mu.Unlock()
		inc.kill()
		h.mu.Lock()
		running := inc.running
		h.mu.Unlock()
		if running {
			<-inc.exited
		}
		h.drain(inc)
		h.mu.Lock()
		same := h.inc == inc
		h.mu.Unlock()
		if same {
			return
		}
		// A concurrent Respawn swapped in a fresh incarnation between
		// our read and now; kill that one too, or we would return with
		// the host still running.
	}
}

// drain discards the deliveries queued in the inbox — its channel and its
// spill — and the arrivals the exited incarnation inc still held for their
// latency, counting them as dropped. Kill and Respawn can drain the same
// incarnation at once, so each takes the held list under h.mu, and the
// inbox hands each arrival to one receiver: every message is retired by
// exactly one of them.
func (h *Host) drain(inc *incarnation) {
	h.mu.Lock()
	held := inc.held
	inc.held = nil
	h.mu.Unlock()
	for _, a := range held {
		h.rt.held.Add(-1)
		h.rt.dropped.Add(1)
		recycle(a.cmd.msg)
	}
	// The channel is empty only when the spill is too: each receive tops
	// it up, as the host loop's does.
	for {
		select {
		case cmd := <-h.inbox.ch:
			h.inbox.topUp()
			h.rt.dropped.Add(1)
			recycle(cmd.msg)
		default:
			return
		}
	}
}

// recycle retires a message (see proto.Recyclable): called exactly once
// per message, after its Handle returns or on any drop/overflow/drain
// path. sync.Pool's Put/Get establish the cross-goroutine ordering.
func recycle(m proto.Message) {
	if r, ok := m.(proto.Recyclable); ok {
		r.Recycle()
	}
}

// Stopped reports whether the host's current incarnation has been killed,
// by Kill or by Runtime.Close.
func (h *Host) Stopped() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inc.dead()
}

// Respawn restarts a killed host with its protocol state intact — the
// crash-recovery model: the node comes back with whatever (possibly
// stale) structures it had, re-runs Init after its configured offsets,
// and resumes ticking. It is a no-op if the host is already running and
// returns ErrClosed after Runtime.Close. Respawn before Runtime.Start
// just revives the host; Start will launch it.
func (h *Host) Respawn() error {
	r := h.rt
	for {
		if r.closed.Load() {
			return ErrClosed
		}
		h.mu.Lock()
		inc := h.inc
		running := inc.running
		h.mu.Unlock()
		if !inc.dead() {
			return nil
		}
		if running {
			// Wait for the previous incarnation outside the locks.
			<-inc.exited
		}
		// Discard messages that arrived while the host was down, as a
		// rebooting UDP host would. Best-effort: a message still in
		// flight on the link from the down window can land after the
		// drain and reach the new incarnation — indistinguishable, to
		// the protocol, from one sent during the reboot itself.
		h.drain(inc)
		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			return ErrClosed
		}
		h.mu.Lock()
		if h.inc != inc {
			// A concurrent Respawn won; re-evaluate from scratch.
			h.mu.Unlock()
			r.mu.Unlock()
			continue
		}
		fresh := newIncarnation()
		h.inc = fresh
		launch := r.started.Load()
		if launch {
			fresh.running = true
			r.wg.Add(1)
		}
		h.mu.Unlock()
		r.mu.Unlock()
		if launch {
			go h.run(fresh)
		}
		return nil
	}
}

// Pause freezes the host between callbacks: the host goroutine stops
// draining its inbox and ticks until Resume. It returns once the host is
// actually parked, so the caller may read the host's protocol state until
// the matching Resume (the handshake establishes the happens-before
// edges). Returns false if the host is dead, which it is after Close.
func (h *Host) Pause() bool { return h.control(true) }

// Resume unfreezes a paused host. Returns false if the host is dead, which
// it is after Close. Resuming a host that is not paused is a no-op
// handshake.
func (h *Host) Resume() bool { return h.control(false) }

func (h *Host) control(pause bool) bool {
	c := ctrlMsg{pause: pause, ack: make(chan struct{})}
	for {
		h.mu.Lock()
		inc := h.inc
		running := inc.running
		h.mu.Unlock()
		if !running || inc.dead() {
			return false
		}
		select {
		case h.ctrl <- c:
			// Some incarnation received the command (h.ctrl is shared
			// across incarnations) and closes ack immediately on
			// receipt, so this wait is short and unconditional —
			// selecting on a possibly stale inc.exited here could
			// report a successfully parked host as dead.
			<-c.ack
			return true
		case <-inc.exited:
			// This incarnation ended — Kill, or Close killing every
			// incarnation; re-evaluate: a concurrent Respawn may have
			// installed a live one.
		}
	}
}

// Start brings the link up, then launches every live host goroutine and
// begins ticking.
func (r *Runtime) Start() error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return ErrClosed
	}
	if r.started.Load() {
		return errors.New("host: network already started")
	}
	if err := r.link.Start(); err != nil {
		return err
	}
	r.start = time.Now()
	// Publish started only now, under mu and after r.start is written:
	// Respawn checks it (under mu) to decide whether to launch, and a
	// launched goroutine reads r.start in Context.Now.
	r.started.Store(true)
	// Launch hosts while still holding r.mu: every wg.Add must be
	// ordered before a concurrent Close sets closing and calls wg.Wait
	// (same discipline Respawn follows), or goroutines could start after
	// Close has already drained and snapshotted.
	for _, h := range r.local {
		h.mu.Lock()
		inc := h.inc
		if inc.dead() || inc.running {
			h.mu.Unlock()
			continue
		}
		inc.running = true
		r.wg.Add(1)
		h.mu.Unlock()
		go h.run(inc)
	}
	return nil
}

// run is the host main loop for one incarnation and the only goroutine it
// has: it serves deliveries, pause/resume handshakes and its own tick
// schedule — each binding's Init, then its Ticks — until the incarnation
// is killed (Kill, or Close killing them all). Its select names only
// channels this host owns: a runtime-wide stop channel there would be
// locked by every host on every message.
//
// Each pass takes at most one arrival from the inbox's channel and then
// tops the channel up from the inbox's spill, if that holds anything.
// While a latency window is set, an arrival taken from the inbox is not
// dispatched at once but held until its due time, drawn from the host's
// send-RNG; the one timer serves the held arrivals and the tick schedule
// alike, armed for whichever is due first.
func (h *Host) run(inc *incarnation) {
	defer h.rt.wg.Done()
	defer close(inc.exited)
	h.incarnations.Add(1)
	epoch := time.Now()
	sched := make([]time.Duration, len(h.bindings))
	for i := range sched {
		sched[i] = h.bindings[i].offset
	}
	// One timer, armed for the earliest due callback or held arrival (by
	// the first pass, at once); armed is when it fires. due is its channel
	// only while something is scheduled and nil otherwise: blocking on a
	// timer's channel makes selectgo lock the timer to register and
	// unregister the waiter on every pass, which a reactive host with
	// nothing held would pay per delivery.
	timer := time.NewTimer(0)
	defer timer.Stop()
	due, armed := timer.C, time.Duration(0)
	for {
		select {
		case <-inc.down:
			return
		case c := <-h.ctrl:
			close(c.ack)
			if c.pause {
				if !h.parked(inc) {
					return
				}
			}
		case <-due:
			// The clock is read here: the channel's value can predate a
			// long park.
			due, armed = nil, never
			now := time.Since(epoch)
			for n := len(inc.held); n > 0 && inc.held[n-1].due <= now; n-- {
				a := inc.held[n-1]
				inc.held[n-1] = arrival{}
				inc.held = inc.held[:n-1]
				h.rt.held.Add(-1)
				h.dispatch(a.cmd)
			}
			// StopTicks is for good: Init and Tick may send, and a host
			// (even one respawned since) must start no new round.
			next := never
			if !h.rt.noTicks.Load() {
				next = step(h.bindings, sched, now, h.fire)
			}
			if n := len(inc.held); n > 0 {
				next = min(next, inc.held[n-1].due)
			}
			if next != never {
				timer.Reset(next - time.Since(epoch))
				due, armed = timer.C, next
			}
		case cmd := <-h.inbox.ch:
			h.inbox.topUp()
			win := h.rt.latency.Load()
			if win == nil {
				h.dispatch(cmd)
				continue
			}
			at := time.Since(epoch) + time.Duration(win.min)
			if win.span > 0 {
				at += time.Duration(h.sendRNG.Int63n(win.span + 1))
			}
			inc.hold(at, cmd)
			h.rt.held.Add(1)
			if at < armed {
				timer.Reset(at - time.Since(epoch))
				due, armed = timer.C, at
			}
		}
	}
}

// hold files cmd among the incarnation's held arrivals, due at at: after
// every arrival due no later, so arrivals with equal due times are
// dispatched in the order they were taken from the inbox.
func (inc *incarnation) hold(at time.Duration, cmd command) {
	i := sort.Search(len(inc.held), func(i int) bool { return inc.held[i].due <= at })
	inc.held = slices.Insert(inc.held, i, arrival{due: at, cmd: cmd})
}

// parked blocks until Resume or until the incarnation is killed — by Kill
// or by Close, which kills every incarnation. It reports whether the
// incarnation should keep running.
func (h *Host) parked(inc *incarnation) bool {
	for {
		select {
		case c := <-h.ctrl:
			close(c.ack)
			if !c.pause {
				return true
			}
		case <-inc.down:
			return false
		}
	}
}

// fire runs one scheduled callback.
func (h *Host) fire(b *binding, init bool) {
	if init {
		b.p.Init(&b.ctx)
	} else {
		h.ticks.Add(1)
		b.p.Tick(&b.ctx)
	}
}

func (h *Host) dispatch(cmd command) {
	b := h.find(cmd.pid)
	if b == nil {
		h.rt.dropped.Add(1)
		recycle(cmd.msg)
		return
	}
	h.rt.delivered.Add(1)
	h.delivered.Add(1)
	b.p.Handle(&b.ctx, cmd.from, cmd.msg)
	recycle(cmd.msg)
}

// send counts the message, applies the fault model, and hands what
// survives to the link. It runs entirely lock-free — fault model from
// atomics, randomness from the sender's private RNG, host table immutable
// after Start — so concurrent senders never contend. It must only be
// called from the sending host's callback goroutine (the only place
// protocols can send from).
func (r *Runtime) send(from *Host, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	r.sent.Add(1)
	rng := from.sendRNG
	dropP := math.Float64frombits(r.dropBits.Load())
	drop := dropP > 0 && rng.Float64() < dropP
	if !drop {
		if cut := r.partition.Load(); cut != nil && (*cut)(from.addr, to) {
			drop = true
		}
	}
	if drop || int(to) < 0 || int(to) >= len(r.hosts) {
		r.dropped.Add(1)
		recycle(msg)
		return
	}
	r.link.Send(from.addr, to, pid, msg)
}

// Deliver is the link's single way back in: it places an arrived message
// in the destination inbox. Messages for dead hosts still enter the inbox
// while it has room (they are drained as dropped by Kill/Close — checking
// liveness before every enqueue would race with Kill's drain, and the
// accounting comes out the same); only when the inbox is full does
// liveness pick the category, so a dead host's steady-state losses read
// as Dropped, not inbox pressure. An arrival for an address this runtime
// does not own, or one after Close has begun, is dropped (its sender
// counted it Sent).
//
// While the destination's spill is empty the enqueue is one atomic load and
// a single-case non-blocking send, so it locks the destination inbox's
// channel and nothing else: no channel every host shares sits on the
// per-message path, and the closed flag is an atomic load. Only an arrival
// that finds the channel full, or the spill in use, takes the mailbox's
// mutex.
func (r *Runtime) Deliver(from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	if r.closed.Load() || !r.Local(to) {
		r.dropped.Add(1)
		recycle(msg)
		return
	}
	dst := r.hosts[to]
	if dst.inbox.put(command{from: from, pid: pid, msg: msg}) {
		return
	}
	if dst.Stopped() {
		r.dropped.Add(1)
		recycle(msg)
		return
	}
	r.overflow.Add(1)
	dst.overflow.Add(1)
	recycle(msg)
}

// Drop counts one message the link lost — stranded in flight at shutdown,
// failed on a socket, undecodable on arrival — as Dropped and retires it.
// msg is nil when only an encoded frame was lost: the sending side retired
// the message itself when it built the frame.
func (r *Runtime) Drop(msg proto.Message) {
	r.dropped.Add(1)
	recycle(msg)
}

// Overflow counts one message bounced off a full link queue as Overflow
// and retires it; msg is nil for a bare frame, as for Drop.
func (r *Runtime) Overflow(msg proto.Message) {
	r.overflow.Add(1)
	recycle(msg)
}

// Close stops all hosts the way Kill does — every local host's current
// incarnation is killed, so Stopped reports true afterwards — waits for
// them to exit, closes the link, and settles the traffic accounting:
// in-flight, queued and held-but-undispatched messages are counted as
// dropped, so the conservation law documented on Stats holds. It is
// idempotent.
func (r *Runtime) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.mu.Lock()
	r.closing = true
	hosts := r.local
	r.mu.Unlock()
	// A Respawn racing this either installed its incarnation before
	// closing was set, so it is the one read and killed here, or it sees
	// closing and returns ErrClosed.
	for _, h := range hosts {
		h.mu.Lock()
		inc := h.inc
		h.mu.Unlock()
		inc.kill()
	}
	r.wg.Wait()
	// Hosts first, link second: with every sender gone, what the link
	// finds stranded is final. Arrivals it still hands to Deliver count
	// dropped there; what reached an inbox or a held list before Close is
	// drained below.
	r.link.Close()
	for _, h := range hosts {
		h.mu.Lock()
		inc := h.inc
		h.mu.Unlock()
		h.drain(inc)
	}
}

// PauseAll pauses every live host, in parallel, and returns once all of
// them are parked. Combined with ResumeAll it brackets a consistent
// whole-network measurement without stopping the clock; under the socket
// engine the campaign is at a consistent cut once every process has
// paused.
func (r *Runtime) PauseAll() { r.controlAll(true) }

// ResumeAll resumes every live host.
func (r *Runtime) ResumeAll() { r.controlAll(false) }

func (r *Runtime) controlAll(pause bool) {
	r.mu.Lock()
	hosts := r.local
	r.mu.Unlock()
	// The handshakes are wait-bound (each blocks until the target host
	// goroutine gets scheduled), not CPU-bound, so fan out far wider
	// than GOMAXPROCS: with serial handshakes a loaded scheduler pays
	// one full scheduling round-trip per host, which at thousands of
	// hosts turns a measurement barrier into seconds.
	workers := 256
	if workers > len(hosts) {
		workers = len(hosts)
	}
	if workers < 1 {
		return
	}
	var wg sync.WaitGroup
	next := make(chan *Host, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range next {
				h.control(pause)
			}
		}()
	}
	for _, h := range hosts {
		next <- h
	}
	close(next)
	wg.Wait()
}

// Snapshot returns a consistent snapshot of the traffic counters: the
// four counters are re-read until two consecutive passes agree, so a
// mid-run snapshot is a plausible cut of the counter stream rather than
// four unrelated instants. At quiescence (after Close) it is exact and
// satisfies Sent == Delivered + Dropped + Overflow.
func (r *Runtime) Snapshot() Stats {
	prev := r.readStats()
	for i := 0; i < 8; i++ {
		cur := r.readStats()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func (r *Runtime) readStats() Stats {
	// Sent is read last: every message is counted sent before it can be
	// counted delivered/dropped/overflowed, so with monotonic counters
	// this ordering guarantees Delivered+Dropped+Overflow <= Sent even
	// for a torn read — a snapshot can undercount outcomes, never show
	// more outcomes than sends.
	st := Stats{
		Dropped:   r.dropped.Load(),
		Delivered: r.delivered.Load(),
		Overflow:  r.overflow.Load(),
	}
	st.Sent = r.sent.Load()
	return st
}
