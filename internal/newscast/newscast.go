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
type Message struct {
	Entries []entry
	Request bool
}

// WireSize reports the message size in descriptor units for traffic
// accounting.
func (m Message) WireSize() int { return len(m.Entries) }

// Protocol is the NEWSCAST state machine for one node. Higher layers on
// the same node draw from its view through a Sampler, exactly as they would
// call into a co-located daemon.
type Protocol struct {
	self     peer.Descriptor
	viewSize int

	// view is sorted by fresher, holds each ID once, never holds self and
	// is at most viewSize long. merge is its only writer.
	view []entry

	// spare is the buffer merge builds the next view in; the two swap on
	// every merge. scratch holds merge's sorted copy of a received list.
	spare, scratch []entry
}

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
	ctx.Send(target.Addr, Message{Entries: p.outgoing(ctx.Now()), Request: true})
}

// Handle merges an incoming view and answers requests with the local view.
func (p *Protocol) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(Message)
	if !ok {
		return
	}
	if m.Request {
		ctx.Send(from, Message{Entries: p.outgoing(ctx.Now())})
	}
	p.merge(m.Entries)
}

// ProtoID is the simnet protocol identifier conventionally used for the
// sampling layer.
const ProtoID proto.ProtoID = 1

// outgoing builds the view to send: the current view plus the node's own
// descriptor stamped with the current time.
func (p *Protocol) outgoing(now int64) []entry {
	out := make([]entry, 0, len(p.view)+1)
	out = append(out, entry{desc: p.self, ts: now})
	out = append(out, p.view...)
	return out
}

// merge folds received entries into the view, keeping for each ID the
// freshest occurrence (the view's on an exact timestamp tie, else the first
// received), dropping the self entry, and keeping the viewSize freshest
// descriptors.
//
// The view is already in fresher order and a received list is the sender's
// outgoing — its self entry stamped now, then its view — so sorting the copy
// of it is one linear pass, and the first occurrence of an ID in the two-way
// merge is its freshest. Input in any other order, with repeated IDs or with
// a self entry comes out the same way, only slower. Steady state allocates
// nothing: the next view is built in spare and the two buffers swap.
func (p *Protocol) merge(received []entry) {
	// Stable insertion sort of the copy: among equal (ts, ID) pairs the
	// first received stays first.
	r := append(p.scratch[:0], received...)
	for i := 1; i < len(r); i++ {
		e := r[i]
		j := i
		for ; j > 0 && fresher(e, r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = e
	}
	p.scratch = r

	if cap(p.spare) < p.viewSize {
		p.spare = make([]entry, 0, p.viewSize)
	}
	out, v := p.spare[:0], p.view
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
		// A fresher copy of this ID may have come from the other list;
		// out holds at most viewSize entries, so a scan beats a set.
		for _, o := range out {
			if o.desc.ID == e.desc.ID {
				continue next
			}
		}
		out = append(out, e)
	}
	p.view, p.spare = out, p.view[:0]
}

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
