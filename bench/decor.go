package main

import (
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// tracedProto is the timing decorator around one node's protocol: every
// Init, Tick and Handle becomes a span whose parent is the engine span in
// progress. The engine serialises one node's callbacks, so the decorator
// owns its buffer without locking.
type tracedProto struct {
	inner              proto.Protocol
	buf                *traceBuf
	init, tick, handle spanKind
	// cur is the callback span in progress, the parent of the sends and
	// sampler calls made from inside it.
	cur int64
	ctx tracedCtx
	// sends and entries count the messages sent from recorded callbacks
	// and, for bootstrap messages, the descriptors they carried.
	sends, entries int64
}

var _ proto.Protocol = (*tracedProto)(nil)

func newTracedProto(t *tracer, inner proto.Protocol, init, tick, handle spanKind) *tracedProto {
	d := &tracedProto{inner: inner, buf: t.newBuf(), init: init, tick: tick, handle: handle, cur: noSpan}
	d.ctx.d = d
	return d
}

// enter opens a callback span and returns the context to hand on.
func (d *tracedProto) enter(kind spanKind, ctx proto.Context) (proto.Context, int64) {
	id := d.buf.begin(kind, d.buf.t.engine.Load())
	d.cur = id
	d.ctx.Context = ctx
	return &d.ctx, id
}

func (d *tracedProto) leave(id int64) {
	d.cur = noSpan
	d.ctx.Context = nil
	d.buf.end(id)
}

func (d *tracedProto) Init(ctx proto.Context) {
	c, id := d.enter(d.init, ctx)
	d.inner.Init(c)
	d.leave(id)
}

func (d *tracedProto) Tick(ctx proto.Context) {
	c, id := d.enter(d.tick, ctx)
	d.inner.Tick(c)
	d.leave(id)
}

func (d *tracedProto) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	c, id := d.enter(d.handle, ctx)
	d.inner.Handle(c, from, msg)
	d.leave(id)
}

// tracedCtx is the context a traced callback sees: Send is a span of the
// engine's (under the socket engine it includes the wire encode), so a
// protocol's self time excludes the engine work its sends trigger.
type tracedCtx struct {
	proto.Context
	d *tracedProto
}

func (c *tracedCtx) Send(to peer.Addr, msg proto.Message) {
	c.d.sends++
	if m, ok := msg.(*core.Message); ok {
		c.d.entries += int64(len(m.Entries))
	}
	id := c.d.buf.begin(spSend, c.d.cur)
	c.Context.Send(to, msg)
	c.d.buf.end(id)
}

// tracedSampler times the sampling service calls a node makes; the spans
// are children of the node's callback in progress.
type tracedSampler struct {
	inner sampler
	d     *tracedProto
}

var (
	_ sampling.Service       = (*tracedSampler)(nil)
	_ sampling.AppendSampler = (*tracedSampler)(nil)
)

func (s *tracedSampler) Sample(n int) []peer.Descriptor { return s.AppendSample(nil, n) }

func (s *tracedSampler) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	id := s.d.buf.begin(spSample, s.d.cur)
	dst = s.inner.AppendSample(dst, n)
	s.d.buf.end(id)
	return dst
}

// sampler is what every sampling service used here offers: the plain call
// and the allocation-free one.
type sampler interface {
	sampling.Service
	sampling.AppendSampler
}
