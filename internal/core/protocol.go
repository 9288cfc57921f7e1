package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// ProtoID is the bootstrapping layer's protocol identifier.
const ProtoID = proto.BootstrapID

// Message is one half of a bootstrap gossip exchange (paper Figure 2): a
// set of node descriptors optimised for the receiver, carrying the sender's
// own descriptor so the receiver can answer. Request messages ask for an
// answer built the same way.
//
// Ownership: a Message has one receiver, which owns Entries/Dead until its
// Handle returns and may rewrite them in place. Senders must not retain or
// mutate them after handing the message to an engine.
//
// Messages travel as *Message and are pooled: the protocol sends pointers
// (boxing a pointer into the proto.Message interface allocates nothing)
// and implements proto.Recyclable, so an engine that retires a delivered
// or dropped message returns it — entries arena included — to the pool for
// the next createMessage. Code that keeps a message beyond Handle (tests,
// ad-hoc tooling) simply never recycles it, which is always safe.
type Message struct {
	Sender  peer.Descriptor
	Entries []peer.Descriptor
	Request bool
	// Dead carries death certificates — IDs the sender has evicted via
	// its failure detector. Only present when the eviction extension is
	// enabled; receivers adopt them as tombstones so departures
	// propagate like rumors instead of fighting gossip reinfection.
	Dead []id.ID
}

// WireSize reports the message size in descriptor units (the entries plus
// the sender descriptor; certificates are half a descriptor each).
func (m Message) WireSize() int { return len(m.Entries) + 1 + (len(m.Dead)+1)/2 }

// messagePool recycles Message values together with their Entries/Dead
// backing arrays — the pooled entries arena that removes the per-send
// slice allocation from the tick hot path.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

var _ proto.Recyclable = (*Message)(nil)

// Recycle implements proto.Recyclable: the message returns to the shared
// pool and its backing arrays become the arena for a future send. Only an
// engine may call it, exactly once, once the message is fully retired.
func (m *Message) Recycle() {
	m.Sender = peer.Descriptor{}
	m.Request = false
	m.Entries = m.Entries[:0]
	m.Dead = m.Dead[:0]
	messagePool.Put(m)
}

// NewMessage returns an empty pooled Message ready to be filled — the
// decode-side counterpart of createMessage's pool draw. A transport that
// deserialises frames appends into the returned message's Entries/Dead
// arenas; once the engine retires the message (proto.Recyclable), the
// arena returns to the pool for the next decode, so steady-state decoding
// allocates nothing.
func NewMessage() *Message { return messagePool.Get().(*Message) }

// maxCertificates caps the death certificates attached per message.
const maxCertificates = 32

// Node is the bootstrap protocol state machine for one participant. It
// implements proto.Protocol; the same callbacks are driven by the
// concurrent livenet runtime.
type Node struct {
	cfg     Config
	self    peer.Descriptor
	sampler sampling.Service
	leaf    *LeafSet
	table   *PrefixTable

	// exchanges counts completed update rounds, for observability.
	exchanges int64

	// Failure-detector state (used only when cfg.EvictAfterMisses > 0):
	// the peer whose answer is outstanding, whether it answered,
	// consecutive unanswered requests per peer, local tombstones for
	// evicted peers (expiry tick), and the tick counter. The per-peer
	// tables are open-addressed (internal/flat) rather than built-in
	// maps: half the memory at 2^18+ nodes, and their iteration order —
	// which reaches the wire via death certificates — is deterministic.
	pending  peer.Descriptor
	answered bool
	misses   flat.Table[int]
	tombs    flat.Table[int64]
	ticks    int64

	// released records that the node's arena-backed storage has been
	// returned; it makes Release idempotent.
	released bool
}

// msgScratch holds the ID-ordered runs and merge buffers reused across
// createMessage calls so steady-state message construction allocates
// nothing: the shipped entries live in a pooled message's arena. The
// scratch is pooled process-wide rather than retained per node — each
// node's callbacks run serialised (simnet is single-threaded; livenet
// drives each host from one dispatch loop), so a message construction
// holds an object exclusively for its duration and a handful of objects
// serve any number of nodes.
type msgScratch struct {
	near    []peer.Descriptor // self + leaf set, by ID
	raw     []peer.Descriptor // the cr samples as drawn
	sample  []peer.Descriptor // the cr samples, by ID
	union   []peer.Descriptor // near ∪ sample ∪ table, by ID
	expired []id.ID
}

var msgScratchPool = sync.Pool{New: func() any { return new(msgScratch) }}

// tombstoneTTL is how many ticks an evicted peer stays blacklisted. A
// falsely evicted live peer (consecutive message losses) is relearned
// through gossip once its tombstone expires.
const tombstoneTTL = 20

// sweepEvery makes every sweepEvery-th request (in expectation) probe a
// uniformly random known entry instead of a close ring neighbour, so dead
// entries outside the gossip working set are eventually detected.
const sweepEvery = 4

// appendCertificates appends the unexpired tombstoned IDs to dst, capped
// for transport, in the tomb table's (deterministic) iteration order.
// Expired tombstones found on the way are collected into scratch and
// deleted after the scan: deletion backshifts table entries, so deleting
// mid-iteration would derail the cursor.
func (n *Node) appendCertificates(dst []id.ID, sc *msgScratch) []id.ID {
	if n.tombs.Len() == 0 {
		return dst
	}
	added := 0
	sc.expired = sc.expired[:0]
	n.tombs.Iter(func(dead id.ID, expiry int64) bool {
		if n.ticks >= expiry {
			sc.expired = append(sc.expired, dead)
			return true
		}
		dst = append(dst, dead)
		added++
		return added < maxCertificates
	})
	for _, dead := range sc.expired {
		n.tombs.Delete(dead)
	}
	return dst
}

// adoptCertificates merges a peer's death certificates: each new one
// tombstones and removes the named entry locally.
func (n *Node) adoptCertificates(sender peer.Descriptor, dead []id.ID) {
	for _, d := range dead {
		if d == n.self.ID || d == sender.ID {
			continue
		}
		if n.tombs.Contains(d) {
			continue
		}
		n.tombs.Put(d, n.ticks+tombstoneTTL)
		n.leaf.Remove(d)
		n.table.Remove(d)
	}
}

var _ proto.Protocol = (*Node)(nil)

// NewNode returns a bootstrap node with empty structures. The sampler is
// the co-located peer sampling service (oracle or NEWSCAST instance).
func NewNode(self peer.Descriptor, cfg Config, sampler sampling.Service) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("new node %s: %w", self.ID, err)
	}
	if sampler == nil {
		return nil, fmt.Errorf("new node %s: nil sampler", self.ID)
	}
	n := &Node{
		cfg:     cfg,
		self:    self,
		sampler: sampler,
		leaf:    NewLeafSetIn(cfg.Arena, self.ID, cfg.C),
		table:   NewPrefixTableIn(cfg.Arena, self.ID, cfg.B, cfg.K),
		pending: peer.None,
	}
	return n, nil
}

// Release returns the node's arena-backed storage (leaf set block, prefix
// table slots) to the network's arena. The engine or harness calls it when
// the node is permanently retired — simnet churn replaces nodes, so the
// victim releases; livenet kill/respawn revives the same node with its
// state intact, so it must NOT release. Idempotent; the node must not be
// driven again afterwards.
func (n *Node) Release() {
	if n.released {
		return
	}
	n.released = true
	n.leaf.Release()
	n.table.Release()
}

// Init implements the paper's start procedure: the leaf set is initialised
// with random nodes from the sampling service and the prefix table is
// cleared (it is born empty here).
func (n *Node) Init(ctx proto.Context) {
	n.leaf.Update(n.sampler.Sample(n.cfg.C))
}

// Tick is one iteration of the active thread: select a peer from the closer
// half of the leaf set, send it an optimised message, and (on arrival of
// the answer, via Handle) update the leaf set and prefix table.
func (n *Node) Tick(ctx proto.Context) {
	n.ticks++
	n.noteMissedAnswer()
	q := peer.None
	if n.cfg.EvictAfterMisses > 0 && ctx.Rand().Intn(sweepEvery) == 0 {
		q = n.sweepTarget(ctx.Rand())
	}
	if q.Nil() {
		q = n.selectPeer(ctx.Rand())
	}
	if q.Nil() {
		return
	}
	if n.cfg.EvictAfterMisses > 0 {
		n.pending, n.answered = q, false
	}
	ctx.Send(q.Addr, n.createMessage(q, true))
}

// sweepTarget picks a uniformly random entry from the node's structures —
// the probe that lets the failure detector reach entries the ring gossip
// never contacts (far leaf entries and prefix-table slots).
func (n *Node) sweepTarget(rng *rand.Rand) peer.Descriptor {
	total := n.leaf.Len() + n.table.Len()
	if total == 0 {
		return peer.None
	}
	// Index successors, then predecessors, then the table row by row,
	// without materialising the concatenation.
	succ, pred := n.leaf.Successors(), n.leaf.Predecessors()
	switch i := rng.Intn(total); {
	case i < len(succ):
		return succ[i]
	case i < len(succ)+len(pred):
		return pred[i-len(succ)]
	default:
		return n.table.at(i - len(succ) - len(pred))
	}
}

// noteMissedAnswer charges the previously contacted peer when its answer
// never arrived, evicting it after EvictAfterMisses consecutive misses.
func (n *Node) noteMissedAnswer() {
	if n.cfg.EvictAfterMisses == 0 || n.pending.Nil() || n.answered {
		return
	}
	m, _ := n.misses.Get(n.pending.ID)
	m++
	if m >= n.cfg.EvictAfterMisses {
		n.leaf.Remove(n.pending.ID)
		n.table.Remove(n.pending.ID)
		n.misses.Delete(n.pending.ID)
		// Blacklist so gossip cannot immediately reintroduce the
		// entry; the tombstone expires in case this was a false
		// positive caused by message loss.
		n.tombs.Put(n.pending.ID, n.ticks+tombstoneTTL)
	} else {
		n.misses.Put(n.pending.ID, m)
	}
	n.pending = peer.None
}

// filterTombstoned drops descriptors currently blacklisted, expiring
// tombstones lazily. It compacts the received slice in place: the receiver
// owns it (see Message).
func (n *Node) filterTombstoned(ds []peer.Descriptor) []peer.Descriptor {
	if n.tombs.Len() == 0 {
		return ds
	}
	out := ds[:0]
	for _, d := range ds {
		expiry, dead := n.tombs.Get(d.ID)
		if dead && n.ticks >= expiry {
			n.tombs.Delete(d.ID)
			dead = false
		}
		if !dead {
			out = append(out, d)
		}
	}
	return out
}

// Handle implements both the passive thread (answer requests with an
// equally optimised message) and the tail of the active thread (merge the
// answer).
func (n *Node) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(*Message)
	if !ok {
		return
	}
	if m.Request {
		ctx.Send(from, n.createMessage(m.Sender, false))
	}
	entries := m.Entries
	if n.cfg.EvictAfterMisses > 0 {
		// Any message from a peer proves it alive.
		n.misses.Delete(m.Sender.ID)
		n.tombs.Delete(m.Sender.ID)
		if m.Sender.ID == n.pending.ID {
			n.answered = true
		}
		n.adoptCertificates(m.Sender, m.Dead)
		entries = n.filterTombstoned(entries)
	}
	n.updateLeafSet(entries)
	n.updatePrefixTable(entries)
	n.exchanges++
}

// updateLeafSet is the paper's UpdateLeafSet: merge and keep the c/2
// closest successors and predecessors.
func (n *Node) updateLeafSet(ds []peer.Descriptor) {
	n.leaf.Update(ds)
}

// updatePrefixTable is the paper's UpdatePrefixTable: fill any missing
// table entries from the received set.
func (n *Node) updatePrefixTable(ds []peer.Descriptor) {
	n.table.AddAll(ds)
}

// selectPeer picks a random peer from the closer half of the leaf set.
//
// The paper sorts the whole leaf set by ring distance and samples the
// first half. When one ring direction is locally much denser than the
// other, that half can consist entirely of one direction, so the node
// never gossips toward its sparse side; the node then cannot learn its
// farthest neighbour there except through the random-sample lottery, which
// stalls full convergence for tens of cycles (incompatible with the clean
// convergence the paper reports). We therefore take the closer half of
// each direction — in the typical balanced case the same set of peers —
// which restores symmetric information flow. Before the leaf set has any
// entries the node falls back to a random sample, which also re-bootstraps
// a node that lost all neighbours.
func (n *Node) selectPeer(rng *rand.Rand) peer.Descriptor {
	succ, pred := n.leaf.Successors(), n.leaf.Predecessors()
	if len(succ) == 0 && len(pred) == 0 {
		s := n.sampler.Sample(1)
		if len(s) == 0 {
			return peer.None
		}
		return s[0]
	}
	nSucc := (len(succ) + 1) / 2
	nPred := (len(pred) + 1) / 2
	i := rng.Intn(nSucc + nPred)
	if i < nSucc {
		return succ[i]
	}
	return pred[i-nSucc]
}

// createMessage is the paper's CreateMessage: from everything locally known
// — leaf set, cr fresh random samples, the prefix table, and the node's own
// descriptor — keep the c entries closest to the destination q, then append
// the remaining descriptors as the prefix part, bounded by the size of a
// full prefix table.
//
// Interpretation note: the paper describes the prefix part as "all node
// descriptors that are potentially useful for the peer for its prefix
// table (i.e., have a common prefix with the peer ID)". Row 0 of a prefix
// table is populated by IDs whose common prefix with the owner is *empty*,
// so every descriptor is potentially useful; filtering for a non-empty
// common prefix would permanently starve row 0 once the ring converges and
// messages carry only ring-near entries, contradicting the paper's perfect
// convergence. We therefore ship all remaining union entries, which also
// matches the paper's stated bound (the size of the full prefix table,
// "usually smaller in practice" — the union is far smaller than 768).
//
// The send path does no table work: the union is one three-way merge of
// the ID-ordered leaf set, the sorted samples and the table's rows, which
// the table keeps in ID order and the merge reads in place.
func (n *Node) createMessage(q peer.Descriptor, request bool) *Message {
	sc := msgScratchPool.Get().(*msgScratch)
	// Every source is ID-ordered already or nearly so, so the union is one
	// merge, not a hash-dedupe and a sort; the table's rows are read in
	// place. An ID present in several sources keeps its first descriptor in
	// the order self, leaf set, samples, table.
	sc.near = n.leaf.appendByID(sc.near[:0], n.self)
	sc.sample = sc.sample[:0]
	if n.cfg.CR > 0 {
		sc.raw = n.sampler.AppendSample(sc.raw[:0], n.cfg.CR)
		sc.sample = appendSortedByID(sc.sample, sc.raw)
	}
	limit := n.cfg.C
	if n.cfg.DisablePrefixFeedback {
		sc.union = mergeByID(sc.union[:0], sc.near, sc.sample)
	} else {
		sc.union = n.table.appendMerged(sc.union[:0], sc.near, sc.sample)
		limit += n.cfg.TableCapacity()
	}

	// The shipped entries go from scratch straight into a pooled message's
	// arena: messages are owned by their receiver (see Message), so scratch
	// must never escape — and the engine recycles the arena once the
	// receiver is done with it.
	m := messagePool.Get().(*Message)
	m.Sender = n.self
	m.Request = request
	m.Entries = appendOutward(m.Entries[:0], sc.union, q.ID, limit)
	m.Dead = m.Dead[:0]
	if n.cfg.EvictAfterMisses > 0 {
		m.Dead = n.appendCertificates(m.Dead, sc)
	}
	msgScratchPool.Put(sc)
	return m
}

// sortByID sorts ds in place by ascending ID. It is an insertion sort,
// for runs that are short or nearly sorted, and stable, so of two
// descriptors with one ID the earlier stays first.
func sortByID(ds []peer.Descriptor) {
	for i := 1; i < len(ds); i++ {
		d, j := ds[i], i
		for ; j > 0 && ds[j-1].ID > d.ID; j-- {
			ds[j] = ds[j-1]
		}
		ds[j] = d
	}
}

// appendSortedByID appends src to dst in ascending ID order, stably: a
// counting pass on the top 5 ID bits leaves every descriptor in its
// bucket, and an insertion sort orders the buckets, a few descriptors each
// for the cr samples of a message.
func appendSortedByID(dst, src []peer.Descriptor) []peer.Descriptor {
	const bucketBits = 5
	const shift = id.Bits - bucketBits
	var start [1<<bucketBits + 1]int
	for _, d := range src {
		start[d.ID>>shift+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	base := len(dst)
	dst = slices.Grow(dst, len(src))[:base+len(src)]
	out := dst[base:]
	for _, d := range src {
		out[start[d.ID>>shift]] = d
		start[d.ID>>shift]++
	}
	sortByID(out)
	return dst
}

// mergeByID appends to dst the merge of two ID-ascending runs, one
// descriptor per ID: the first of a run's duplicates, and a's over b's.
func mergeByID(dst, a, b []peer.Descriptor) []peer.Descriptor {
	for len(a) > 0 || len(b) > 0 {
		var d peer.Descriptor
		if len(b) == 0 || (len(a) > 0 && a[0].ID <= b[0].ID) {
			d, a = a[0], a[1:]
		} else {
			d, b = b[0], b[1:]
		}
		if k := len(dst); k == 0 || dst[k-1].ID != d.ID {
			dst = append(dst, d)
		}
	}
	return dst
}

// appendOutward appends to dst the limit descriptors of the ID-ascending,
// duplicate-free union closest to q by ring distance, closest first, the
// smaller ID first on a tie, q itself skipped: ring-distance order with no
// sort. Two cursors start either side of q's position and walk apart around
// the ring; the clockwise one meets IDs in growing clockwise distance from
// q, the other in growing counter-clockwise distance, and whichever is
// nearer is next. Every descriptor not yet shipped lies on the arc between
// the cursors, at least as far from q in each direction as the cursor on
// that side, so the nearer cursor holds a nearest remaining descriptor.
func appendOutward(dst, union []peer.Descriptor, q id.ID, limit int) []peer.Descriptor {
	u := len(union)
	hi, found := slices.BinarySearchFunc(union, q, func(d peer.Descriptor, q id.ID) int {
		return cmp.Compare(d.ID, q)
	})
	lo, left := hi-1, u
	if found {
		hi, left = hi+1, u-1
	}
	for left = min(left, limit); left > 0; left-- {
		if hi == u {
			hi = 0
		}
		if lo < 0 {
			lo = u - 1
		}
		upID, downID := union[hi].ID, union[lo].ID
		cw, ccw := id.Succ(q, upID), id.Pred(q, downID)
		// Which cursor moves is a coin flip to the branch predictor, so
		// it is computed, not branched on: up is 1 to take the clockwise
		// one.
		up := 0
		if cw < ccw {
			up = 1
		}
		if cw == ccw && upID <= downID { // q's antipode: rare
			up = 1
		}
		dst = append(dst, union[lo+up*(hi-lo)])
		hi += up
		lo -= 1 - up
	}
	return dst
}

// Self returns the node's own descriptor.
func (n *Node) Self() peer.Descriptor { return n.self }

// Leaf returns the node's leaf set.
func (n *Node) Leaf() *LeafSet { return n.leaf }

// Table returns the node's prefix table.
func (n *Node) Table() *PrefixTable { return n.table }

// Exchanges returns the number of completed update rounds.
func (n *Node) Exchanges() int64 { return n.exchanges }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }
