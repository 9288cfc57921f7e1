// Package livenet is a concurrent in-memory network runtime: one goroutine
// per host — exactly one: deliveries and the host's own tick schedule are
// steps of the same loop — drives the same protocol state machines that run
// under the deterministic simulator, over a channel-based transport with
// optional loss, latency, and bounded inboxes (UDP-like semantics). It
// demonstrates that the protocol implementations are engine-agnostic and
// exercises them under real concurrency; run the tests with -race.
//
// The host lifecycle — Pause/Resume (freeze a host between callbacks, e.g.
// for a consistent whole-network measurement), Kill/Respawn (crash-recovery
// churn) — the tick schedule, the fault model (SetDrop, SetPartition,
// SetLatency) and the traffic accounting are internal/host's, shared with
// the socket engine. This package owns only its link: a pointer handoff
// from the sender's goroutine straight into the destination's inbox, so it
// starts no goroutine of its own. The scenario layer (scenario.go) drives
// the network during campaign runs.
package livenet

import (
	"repro/internal/host"
	"repro/internal/peer"
	"repro/internal/proto"
)

// Config parameterises the runtime. Drop is only the initial loss
// probability; SetDrop/SetLatency/SetPartition change the fault model
// while the network runs.
type Config struct {
	// Seed drives the loss and latency models and per-host RNGs.
	Seed int64
	// Drop is the per-message loss probability.
	Drop float64
	// InboxSize bounds each host's message queue; messages arriving at
	// a full inbox are dropped, as UDP would. Zero selects 256.
	InboxSize int
}

// The host lifecycle types are internal/host's.
type (
	// Host is one node: a mailbox plus the protocols attached to it.
	Host = host.Host
	// Stats is a snapshot of the network traffic counters.
	Stats = host.Stats
)

// Network is a concurrent in-memory network of hosts: the shared host
// runtime over the in-memory link.
type Network struct {
	*host.Runtime
}

// New returns a network ready for AddHost/Attach; call Start to run it.
func New(cfg Config) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	l := &link{}
	l.rt = host.New(cfg.Seed, cfg.Drop, cfg.InboxSize, l)
	return &Network{Runtime: l.rt}
}

// link is livenet's host.Link: every message goes straight back to the
// runtime, which places it in the destination inbox. Latency, when a
// window is set, is the destination host's to apply.
type link struct{ rt *host.Runtime }

func (*link) Start() error { return nil }
func (*link) Close()       {}

func (l *link) Send(from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	l.rt.Deliver(from, to, pid, msg)
}
