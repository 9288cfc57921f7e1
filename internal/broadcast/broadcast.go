// Package broadcast implements gossip (rumor-mongering) broadcast over the
// peer sampling service — the component the paper relies on to start the
// bootstrapping protocol in a loosely synchronised way ("the protocol is
// started by a system administrator, using some form of broadcasting or
// flooding on top of the peer sampling service").
//
// A node holding the rumor forwards it to DefaultFanout random peers every
// period, for DefaultTTL periods after first hearing it. The time between
// injection and a node's first reception is that node's start skew; the
// startspread campaign of cmd/sim measures the skew distribution, which
// justifies the paper's assumption that all nodes can start within a small
// number of Δ.
package broadcast

import (
	"fmt"

	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// ProtoID is the broadcast layer's protocol identifier.
const ProtoID = proto.BroadcastID

// The fanout (random peers a rumor is pushed to per period while hot) and
// TTL (periods a rumor stays hot after reception), chosen to cover networks
// of tens of thousands of nodes within a handful of periods.
const (
	DefaultFanout = 4
	DefaultTTL    = 16
)

// Rumor is the broadcast payload.
type Rumor struct {
	// Seq identifies the rumor; nodes deliver each Seq once.
	Seq uint64
	// Payload is an opaque application value (e.g. "start bootstrap").
	Payload string
}

// WireSize reports the message size in descriptor units; a rumor is tiny.
func (Rumor) WireSize() int { return 1 }

// Protocol is the rumor-mongering state machine for one node.
type Protocol struct {
	self    peer.Descriptor
	sampler sampling.Service

	// seen maps rumor Seq to remaining hot periods.
	seen map[uint64]int
	// rumors retains the payloads for re-forwarding.
	rumors map[uint64]Rumor
	// DeliveredAt records, per Seq, the virtual time of first delivery.
	deliveredAt map[uint64]int64
}

var _ proto.Protocol = (*Protocol)(nil)

// New returns a broadcast instance.
func New(self peer.Descriptor, sampler sampling.Service) (*Protocol, error) {
	if sampler == nil {
		return nil, fmt.Errorf("broadcast node %s: nil sampler", self.ID)
	}
	return &Protocol{
		self:        self,
		sampler:     sampler,
		seen:        make(map[uint64]int),
		rumors:      make(map[uint64]Rumor),
		deliveredAt: make(map[uint64]int64),
	}, nil
}

// Init is a no-op; the protocol is purely reactive until a rumor arrives.
// A harness starts one by sending the origin a rumor addressed to itself.
func (p *Protocol) Init(proto.Context) {}

// Tick pushes all hot rumors to DefaultFanout random peers and cools them.
func (p *Protocol) Tick(ctx proto.Context) {
	for seq, left := range p.seen {
		if left <= 0 {
			continue
		}
		p.seen[seq] = left - 1
		rumor := p.rumors[seq]
		for _, d := range p.sampler.Sample(DefaultFanout) {
			if d.ID == p.self.ID {
				continue
			}
			ctx.Send(d.Addr, rumor)
		}
	}
}

// Handle merges an incoming rumor.
func (p *Protocol) Handle(ctx proto.Context, _ peer.Addr, msg proto.Message) {
	r, ok := msg.(Rumor)
	if !ok {
		return
	}
	p.receive(ctx, r)
}

func (p *Protocol) receive(ctx proto.Context, r Rumor) {
	if _, dup := p.seen[r.Seq]; dup {
		return
	}
	p.seen[r.Seq] = DefaultTTL
	p.rumors[r.Seq] = r
	p.deliveredAt[r.Seq] = ctx.Now()
}

// Delivered reports whether the rumor with the given Seq has been received
// and, if so, when.
func (p *Protocol) Delivered(seq uint64) (int64, bool) {
	at, ok := p.deliveredAt[seq]
	return at, ok
}
