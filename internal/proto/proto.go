// Package proto defines the protocol-engine contract shared by the
// deterministic discrete-event simulator (package simnet) and the
// goroutine host runtime (package host), which runs over livenet's
// in-memory link and over transport's sockets. Protocol implementations
// — the sampling layer, the bootstrapping service, the Chord baseline,
// broadcast and aggregation — are written once against these interfaces
// and run unchanged under either engine.
package proto

import (
	"math/rand"

	"repro/internal/peer"
)

// Message is a protocol payload delivered between nodes. Payloads should
// be plain data; they are shared by reference, so senders must not mutate
// a message after sending it.
type Message interface{}

// Sizer is optionally implemented by messages to report their wire size in
// descriptor units; engines use it for traffic accounting.
type Sizer interface {
	WireSize() int
}

// Recyclable is optionally implemented by messages whose backing storage is
// pooled by the sending protocol. An engine calls Recycle exactly once per
// message, at the moment the message is retired: after the receiving
// protocol's Handle returns, or when the engine drops the message (loss
// model, dead destination, full inbox, shutdown drain). After Recycle the
// message and its slices may be reused for a future send, so neither
// engines nor protocols may retain any part of a recyclable message past
// Handle. A message fanned out by reference to several receivers must NOT
// be recycled per delivery — engines that broadcast one value must recycle
// it once, after the last delivery, or not at all.
type Recyclable interface {
	Recycle()
}

// ProtoID distinguishes the protocol stacks running on one node (e.g. the
// sampling layer and the bootstrapping layer). Messages are delivered to
// the same ProtoID on the destination node.
type ProtoID uint8

// The protocol identifiers of this repository's layers: each layer's
// package declares its ProtoID as one of these.
const (
	// NewscastID is the sampling layer.
	NewscastID ProtoID = 1
	// BootstrapID is the bootstrapping service.
	BootstrapID ProtoID = 2
	// ChordID is the Chord bootstrap baseline.
	ChordID ProtoID = 3
	// BroadcastID is the gossip broadcast layer.
	BroadcastID ProtoID = 4
	// AggregateID is the gossip aggregation layer.
	AggregateID ProtoID = 5
)

// Context is the capability surface a protocol sees during a callback: its
// own address, a clock, a deterministic random source, and the ability to
// send messages. Contexts are only valid for the duration of the callback;
// implementations must not retain them.
type Context interface {
	// Self returns the node's own address.
	Self() peer.Addr
	// Now returns the current time in engine time units (virtual ticks
	// under simnet, milliseconds since start under the host runtime).
	Now() int64
	// Rand returns the node's private random source. It must only be
	// used inside the callback.
	Rand() *rand.Rand
	// Send transmits msg to the destination node, addressed to the same
	// protocol binding the caller is attached under. Sending across
	// protocol stacks is an engine-level operation, not a protocol one.
	Send(to peer.Addr, msg Message)
}

// Protocol is a passive state machine driven by an engine. All state
// access is serialised by the engine (single-threaded event loop under
// simnet, one goroutine per host under the host runtime), so
// implementations need no internal locking.
type Protocol interface {
	// Init is called once when the node starts, before any tick.
	Init(ctx Context)
	// Tick is called every period, starting at the node's start offset.
	Tick(ctx Context)
	// Handle is called for every delivered message.
	Handle(ctx Context, from peer.Addr, msg Message)
}
