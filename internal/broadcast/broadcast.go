// Package broadcast implements gossip (rumor-mongering) broadcast over the
// peer sampling service — the component the paper relies on to start the
// bootstrapping protocol in a loosely synchronised way ("the protocol is
// started by a system administrator, using some form of broadcasting or
// flooding on top of the peer sampling service").
//
// A node holding the rumor forwards it to Fanout random peers every period,
// for TTL periods after first hearing it. The time between injection and a
// node's first reception is that node's start skew; the startspread
// campaign of cmd/sim measures the skew distribution, which justifies the paper's
// assumption that all nodes can start within a small number of Δ.
package broadcast

import (
	"fmt"

	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// ProtoID is the simnet protocol identifier conventionally used for the
// broadcast layer.
const ProtoID proto.ProtoID = 4

// Defaults chosen to cover networks of tens of thousands of nodes within a
// handful of periods.
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

// Config parameterises the broadcast protocol.
type Config struct {
	// Fanout is the number of random peers the rumor is pushed to per
	// period while hot.
	Fanout int
	// TTL is the number of periods a rumor stays hot after reception.
	TTL int
}

// DefaultConfig returns the default fanout/TTL.
func DefaultConfig() Config { return Config{Fanout: DefaultFanout, TTL: DefaultTTL} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Fanout < 1 {
		return fmt.Errorf("broadcast config: fanout %d < 1", c.Fanout)
	}
	if c.TTL < 1 {
		return fmt.Errorf("broadcast config: ttl %d < 1", c.TTL)
	}
	return nil
}

// Protocol is the rumor-mongering state machine for one node.
type Protocol struct {
	cfg     Config
	self    peer.Descriptor
	sampler sampling.Service

	// seen maps rumor Seq to remaining hot periods.
	seen map[uint64]int
	// rumors retains the payloads for re-forwarding.
	rumors map[uint64]Rumor
	// DeliveredAt records, per Seq, the virtual time of first delivery.
	deliveredAt map[uint64]int64
	onDeliver   func(Rumor, int64)
}

var _ proto.Protocol = (*Protocol)(nil)

// New returns a broadcast instance. onDeliver, if non-nil, fires once per
// rumor at first reception with the reception time.
func New(self peer.Descriptor, cfg Config, sampler sampling.Service, onDeliver func(Rumor, int64)) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampler == nil {
		return nil, fmt.Errorf("broadcast node %s: nil sampler", self.ID)
	}
	return &Protocol{
		cfg:         cfg,
		self:        self,
		sampler:     sampler,
		seen:        make(map[uint64]int),
		rumors:      make(map[uint64]Rumor),
		deliveredAt: make(map[uint64]int64),
		onDeliver:   onDeliver,
	}, nil
}

// Init is a no-op; the protocol is purely reactive until a rumor arrives.
// A harness starts one by sending the origin a rumor addressed to itself.
func (p *Protocol) Init(proto.Context) {}

// Tick pushes all hot rumors to Fanout random peers and cools them.
func (p *Protocol) Tick(ctx proto.Context) {
	for seq, left := range p.seen {
		if left <= 0 {
			continue
		}
		p.seen[seq] = left - 1
		rumor := p.rumors[seq]
		for _, d := range p.sampler.Sample(p.cfg.Fanout) {
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
	p.seen[r.Seq] = p.cfg.TTL
	p.rumors[r.Seq] = r
	p.deliveredAt[r.Seq] = ctx.Now()
	if p.onDeliver != nil {
		p.onDeliver(r, ctx.Now())
	}
}

// Delivered reports whether the rumor with the given Seq has been received
// and, if so, when.
func (p *Protocol) Delivered(seq uint64) (int64, bool) {
	at, ok := p.deliveredAt[seq]
	return at, ok
}
