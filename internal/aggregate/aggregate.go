// Package aggregate implements push-pull gossip averaging — the
// "aggregation" component of the paper's architecture (Figure 1, citing
// Jelasity, Montresor & Babaoglu, ACM TOCS 2005). Every period each node
// exchanges its current estimate with a random peer and both adopt the
// mean; estimates converge exponentially to the global average.
//
// With one node holding 1 and all others 0, the average converges to 1/N,
// giving a decentralised network-size estimate — useful for sizing
// bootstrap parameters before jump-starting an overlay.
package aggregate

import (
	"fmt"

	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// ProtoID is the aggregation layer's protocol identifier.
const ProtoID = proto.AggregateID

// Message is one half of a push-pull exchange.
type Message struct {
	Value   float64
	Request bool
}

// WireSize reports the message size in descriptor units; an estimate is
// one scalar.
func (Message) WireSize() int { return 1 }

// Protocol is the averaging state machine for one node.
type Protocol struct {
	self    peer.Descriptor
	sampler sampling.Service
	value   float64
	rounds  int
}

var _ proto.Protocol = (*Protocol)(nil)

// New returns an aggregation instance holding the given initial value.
func New(self peer.Descriptor, sampler sampling.Service, initial float64) (*Protocol, error) {
	if sampler == nil {
		return nil, fmt.Errorf("aggregate node %s: nil sampler", self.ID)
	}
	return &Protocol{self: self, sampler: sampler, value: initial}, nil
}

// Init is a no-op.
func (p *Protocol) Init(proto.Context) {}

// Tick performs the active half of a push-pull exchange with a random peer.
func (p *Protocol) Tick(ctx proto.Context) {
	s := p.sampler.Sample(1)
	if len(s) == 0 || s[0].ID == p.self.ID {
		return
	}
	ctx.Send(s[0].Addr, Message{Value: p.value, Request: true})
}

// Handle answers requests with the local value and averages in either case.
//
// Note on atomicity: the paper's push-pull averaging assumes the pair
// averages atomically. With asynchronous messages a node may enter two
// overlapping exchanges, which perturbs mass conservation slightly; the
// perturbation is zero-mean and vanishes as exchanges serialise, so
// convergence to the average is preserved in practice.
func (p *Protocol) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(Message)
	if !ok {
		return
	}
	if m.Request {
		ctx.Send(from, Message{Value: p.value})
	}
	p.value = (p.value + m.Value) / 2
	p.rounds++
}

// Value returns the current estimate.
func (p *Protocol) Value() float64 { return p.value }

// Rounds returns the number of averaging steps performed.
func (p *Protocol) Rounds() int { return p.rounds }

// SizeEstimate interprets the converged value as a network-size estimate
// for the one-node-holds-1 initialisation. It returns 0 when the estimate
// is not yet meaningful.
func (p *Protocol) SizeEstimate() float64 {
	if p.value <= 0 {
		return 0
	}
	return 1 / p.value
}
