// Package newscast implements the NEWSCAST gossip protocol, the
// instantiation of the peer sampling service used by the paper (Section 3).
//
// Each node keeps a small view of node descriptors tagged with timestamps.
// Periodically it picks a random member of its view and the two nodes
// exchange views; each keeps the freshest entries of the merged views. The
// protocol is cheap (one small message per node per interval), randomises
// non-random initial views very quickly, and self-heals after catastrophic
// failures, which is what makes it a suitable "liquid" bottom layer.
//
// A view is always ordered freshest first — by timestamp descending, ties by
// ID ascending — holds each ID once and never holds the node itself; merge
// relies on that order instead of re-establishing it per message.
package newscast

import (
	"sync"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
)

// DefaultViewSize matches the implementations described by the paper:
// messages carry approximately 30 descriptors.
const DefaultViewSize = 30

// entry is a view slot: a descriptor plus the virtual time at which the
// descriptor was (re)injected by its owner.
type entry struct {
	desc peer.Descriptor
	ts   int64
}

// fresher is the view order: timestamp descending, ties by ID ascending.
func fresher(a, b entry) bool {
	if a.ts != b.ts {
		return a.ts > b.ts
	}
	return a.desc.ID < b.desc.ID
}

// Message is a NEWSCAST view exchange. Request messages ask the receiver to
// answer with its own view; answers do not.
//
// Messages travel as *Message drawn from a pool and implement
// proto.Recyclable: the engine that retires a delivered or dropped message
// returns it, Entries arena included, for the next outgoing. Ownership: the
// receiver may read Entries during Handle and must neither write them nor
// keep them, or any part of the message, after Handle returns.
type Message struct {
	Entries []entry
	Request bool
}

// WireSize reports the message size in descriptor units for traffic
// accounting.
func (m Message) WireSize() int { return len(m.Entries) }

var messagePool = sync.Pool{New: func() any { return new(Message) }}

var _ proto.Recyclable = (*Message)(nil)

// Recycle implements proto.Recyclable: the message returns to the pool and
// its Entries array becomes the arena of a future send. Only an engine may
// call it, exactly once, once the message is retired.
func (m *Message) Recycle() {
	m.Entries = m.Entries[:0]
	messagePool.Put(m)
}

// Protocol is the NEWSCAST state machine for one node. Higher layers on
// the same node draw from its view through a Sampler, exactly as they would
// call into a co-located daemon.
type Protocol struct {
	self     peer.Descriptor
	viewSize int

	// view is sorted by fresher, holds each ID once, never holds self and
	// is at most viewSize long. merge is its only writer.
	view []entry
}

// mergeBuffers is merge's working memory: next is the array it builds the
// next view in, sorted its sorted copy of a received list. They come from
// a process-wide pool rather than from each node, so a node keeps one view
// array and the process keeps about one set of buffers per P.
type mergeBuffers struct {
	next, sorted []entry
}

var mergePool = sync.Pool{New: func() any { return new(mergeBuffers) }}

var _ proto.Protocol = (*Protocol)(nil)

// New returns a NEWSCAST instance for the node with the given descriptor.
// bootstrapView seeds the initial view; it may be tiny, identical at all
// nodes, or wildly non-random — the protocol randomises it within a few
// cycles. viewSize <= 0 selects DefaultViewSize.
func New(self peer.Descriptor, bootstrapView []peer.Descriptor, viewSize int) *Protocol {
	if viewSize <= 0 {
		viewSize = DefaultViewSize
	}
	p := &Protocol{self: self, viewSize: viewSize}
	boot := make([]entry, len(bootstrapView))
	for i, d := range bootstrapView {
		boot[i] = entry{desc: d, ts: 0}
	}
	p.merge(boot)
	return p
}

// Init does nothing: the view is seeded by New.
func (p *Protocol) Init(proto.Context) {}

// Tick runs one active NEWSCAST cycle: send the view (plus a fresh self
// descriptor) to a random view member and merge the answer when it arrives.
func (p *Protocol) Tick(ctx proto.Context) {
	if len(p.view) == 0 {
		return
	}
	target := p.view[ctx.Rand().Intn(len(p.view))].desc
	ctx.Send(target.Addr, p.outgoing(ctx.Now(), true))
}

// Handle merges an incoming view and answers requests with the local view.
func (p *Protocol) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(*Message)
	if !ok {
		return
	}
	if m.Request {
		ctx.Send(from, p.outgoing(ctx.Now(), false))
	}
	p.merge(m.Entries)
}

// ProtoID is the sampling layer's protocol identifier.
const ProtoID = proto.NewscastID

// outgoing builds the message to send in a pooled arena: the node's own
// descriptor stamped with the current time, then the current view.
func (p *Protocol) outgoing(now int64, request bool) *Message {
	m := messagePool.Get().(*Message)
	m.Entries = append(append(m.Entries[:0], entry{desc: p.self, ts: now}), p.view...)
	m.Request = request
	return m
}

// merge folds received entries into the view, keeping for each ID the
// freshest occurrence (the view's on an exact timestamp tie, else the first
// received), dropping the self entry, and keeping the viewSize freshest
// descriptors. It never writes to received and keeps no reference to it.
//
// The view is already in fresher order, and so is a received list that is
// the sender's outgoing — its self entry stamped now, then its view — unless
// a view entry's stamp ties or passes the sender's now. One pass confirms
// the order and the two-way merge reads the list in place; the first
// occurrence of an ID in that merge is its freshest. A list in any other
// order is stable-sorted in a copy first, and repeated IDs and self entries
// come out the same way. Steady state allocates nothing: the next view is
// built in a pooled array, and the old view's array goes back to the pool.
func (p *Protocol) merge(received []entry) {
	buf := mergePool.Get().(*mergeBuffers)
	r := received
	if !inOrder(r) {
		// Stable insertion sort of a copy: among equal (ts, ID) pairs the
		// first received stays first.
		r = append(buf.sorted[:0], received...)
		for i := 1; i < len(r); i++ {
			e := r[i]
			j := i
			for ; j > 0 && fresher(e, r[j-1]); j-- {
				r[j] = r[j-1]
			}
			r[j] = e
		}
		buf.sorted = r
	}

	if cap(buf.next) < p.viewSize {
		buf.next = make([]entry, 0, p.viewSize)
	}
	out, v := buf.next[:0], p.view
	// seen has bit idBit(ID) set for every ID in out: a clear bit proves an
	// ID new without scanning out, so the scan runs only on a repeat or a
	// filter collision.
	var seen [2]uint64
next:
	for len(out) < p.viewSize && (len(v) > 0 || len(r) > 0) {
		var e entry
		if len(r) == 0 || (len(v) > 0 && !fresher(r[0], v[0])) {
			e, v = v[0], v[1:]
		} else {
			e, r = r[0], r[1:]
		}
		if e.desc.ID == p.self.ID {
			continue
		}
		b := idBit(e.desc.ID)
		if seen[b>>6]&(1<<(b&63)) != 0 {
			// A fresher copy of this ID may have come from the other list.
			for _, o := range out {
				if o.desc.ID == e.desc.ID {
					continue next
				}
			}
		}
		seen[b>>6] |= 1 << (b & 63)
		out = append(out, e)
	}
	p.view, buf.next = out, p.view[:0]
	mergePool.Put(buf)
}

// inOrder reports whether es is already in the order merge's stable sort
// would leave it: no entry fresher than the one before it.
func inOrder(es []entry) bool {
	for i := 1; i < len(es); i++ {
		if fresher(es[i], es[i-1]) {
			return false
		}
	}
	return true
}

// idBit hashes an ID to one of merge's 128 filter bits (Fibonacci hashing:
// the top seven bits of the product, so small sequential IDs spread too).
func idBit(i id.ID) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 >> 57 }

// View returns a copy of the current view descriptors, freshest first.
// Intended for tests and measurement code.
func (p *Protocol) View() []peer.Descriptor {
	out := make([]peer.Descriptor, len(p.view))
	for i, e := range p.view {
		out[i] = e.desc
	}
	return out
}

// ViewSize returns the configured view capacity.
func (p *Protocol) ViewSize() int { return p.viewSize }
