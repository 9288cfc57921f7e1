// Package chord implements a Chord-style bootstrap baseline: the same
// T-Man gossip machinery builds a sorted ring (successor/predecessor sets)
// while finger tables — successor(self + 2^i) for each bit i — are filled
// from every descriptor seen. This reproduces the design alternative the
// paper contrasts itself with ("we have already addressed bootstrapping
// CHORD, based on a sorted ring and additional fingers defined by distance
// in the ID space"), and serves as the comparison baseline for the
// prefix-table approach.
package chord

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// ProtoID is the Chord bootstrap layer's protocol identifier.
const ProtoID = proto.ChordID

// NumFingers is the finger-table size: one finger per bit of the ID space.
const NumFingers = id.Bits

// FixPerTick is the number of fingers each node refreshes per cycle through
// find-successor queries routed over the ring (Chord's fix_fingers).
const FixPerTick = 8

// Message is a Chord bootstrap gossip exchange.
type Message struct {
	Sender  peer.Descriptor
	Entries []peer.Descriptor
	Request bool
}

// WireSize reports the message size in descriptor units.
func (m Message) WireSize() int { return len(m.Entries) + 1 }

// FindReq is a find-successor query routed greedily toward Target — the
// fix_fingers mechanism Chord uses to finish its fingers. Gossip alone
// converges the ring quickly but leaves a polynomial tail of inexact
// fingers (the exact successor of a far target only arrives by luck);
// Chord resolves this by looking fingers up through the ring itself.
type FindReq struct {
	Target id.ID
	Origin peer.Descriptor
	Index  int
	Hops   int
}

// WireSize reports the query size in descriptor units.
func (FindReq) WireSize() int { return 2 }

// FindResp answers a FindReq with the target's owner.
type FindResp struct {
	Index int
	Found peer.Descriptor
}

// WireSize reports the answer size in descriptor units.
func (FindResp) WireSize() int { return 1 }

// maxFindHops bounds query forwarding on half-built rings.
const maxFindHops = 64

// Node is the Chord bootstrap state machine for one participant.
type Node struct {
	cfg     core.Config
	self    peer.Descriptor
	sampler sampling.Service
	leaf    *core.LeafSet
	fingers [NumFingers]peer.Descriptor
	fixIdx  int
}

var _ proto.Protocol = (*Node)(nil)

// NewNode returns a Chord bootstrap node with empty structures. It takes the
// bootstrap service's own configuration, so the comparison is
// apples-to-apples: C sizes the successor/predecessor set, CR is the number
// of random samples per message, and the prefix-table fields go unused.
func NewNode(self peer.Descriptor, cfg core.Config, sampler sampling.Service) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampler == nil {
		return nil, fmt.Errorf("chord node %s: nil sampler", self.ID)
	}
	n := &Node{cfg: cfg, self: self, sampler: sampler, leaf: core.NewLeafSet(self.ID, cfg.C)}
	for i := range n.fingers {
		n.fingers[i] = peer.None
	}
	return n, nil
}

// FingerTarget returns the ring point self + 2^i that finger i must cover.
func (n *Node) FingerTarget(i int) id.ID {
	return n.self.ID + id.ID(uint64(1)<<uint(i))
}

// Init seeds the leaf set from the sampling service.
func (n *Node) Init(ctx proto.Context) {
	n.absorb(n.sampler.Sample(n.cfg.C))
}

// Tick runs one active gossip round, then refreshes FixPerTick fingers in
// round-robin order through find-successor queries.
func (n *Node) Tick(ctx proto.Context) {
	q := n.selectPeer(ctx.Rand())
	if !q.Nil() {
		ctx.Send(q.Addr, n.createMessage(q, true))
	}
	for j := 0; j < FixPerTick; j++ {
		i := n.fixIdx % NumFingers
		n.fixIdx++
		target := n.FingerTarget(i)
		next, done := n.NextHop(target)
		if done {
			n.adoptFinger(i, n.self)
			continue
		}
		ctx.Send(next.Addr, FindReq{Target: target, Origin: n.self, Index: i})
	}
}

// Handle answers gossip requests, merges incoming descriptors, and routes
// find-successor queries.
func (n *Node) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	switch m := msg.(type) {
	case Message:
		if m.Request {
			ctx.Send(from, n.createMessage(m.Sender, false))
		}
		n.absorb(m.Entries)
	case FindReq:
		next, done := n.NextHop(m.Target)
		if done || m.Hops >= maxFindHops {
			ctx.Send(m.Origin.Addr, FindResp{Index: m.Index, Found: n.self})
			return
		}
		m.Hops++
		ctx.Send(next.Addr, m)
	case FindResp:
		if m.Index >= 0 && m.Index < NumFingers {
			n.adoptFinger(m.Index, m.Found)
		}
	}
}

// adoptFinger installs d as finger i when it is a better successor of the
// target than the incumbent. Unlike gossip absorption this accepts the
// node's own descriptor: a node can be its own finger across the wrap.
func (n *Node) adoptFinger(i int, d peer.Descriptor) {
	target := n.FingerTarget(i)
	cur := n.fingers[i]
	if cur.Nil() || id.Succ(target, d.ID) < id.Succ(target, cur.ID) {
		n.fingers[i] = d
	}
}

// absorb merges descriptors into both the leaf set and the finger table.
func (n *Node) absorb(ds []peer.Descriptor) {
	n.leaf.Update(ds)
	for _, d := range ds {
		if d.ID == n.self.ID {
			continue
		}
		n.improveFingers(d)
	}
}

// improveFingers lets d take over any finger whose target it is closer to
// (clockwise) than the incumbent — Chord's successor(target) definition.
func (n *Node) improveFingers(d peer.Descriptor) {
	for i := 0; i < NumFingers; i++ {
		target := n.FingerTarget(i)
		cur := n.fingers[i]
		if cur.Nil() || id.Succ(target, d.ID) < id.Succ(target, cur.ID) {
			n.fingers[i] = d
		}
	}
}

// selectPeer picks a random peer from the closer half of each leaf-set
// direction, falling back to a random sample, mirroring the bootstrap
// service (including its direction balancing; see core.Node.selectPeer).
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

// createMessage keeps, from everything known (leaf set, fingers, cr random
// samples, self), the entries q's leaf set would keep — the c/2 closest
// successors and c/2 closest predecessors of q — then appends, for each of
// q's finger targets, the sender's best candidate — the Chord analogue of
// the bootstrap service's prefix part. Without the target-directed part,
// exact fingers for far targets would only ever arrive through the
// random-sample lottery and convergence would acquire a long polynomial
// tail.
func (n *Node) createMessage(q peer.Descriptor, request bool) Message {
	union := peer.NewSet(n.cfg.C + n.cfg.CR + NumFingers + 1)
	union.Add(n.self)
	union.AddAll(n.leaf.Slice())
	for _, f := range n.fingers {
		if !f.Nil() {
			union.Add(f)
		}
	}
	if n.cfg.CR > 0 {
		union.AddAll(n.sampler.Sample(n.cfg.CR))
	}
	union.Remove(q.ID)

	// The leaf part: what q's own leaf set would keep of the union — its
	// C/2 closest successors and C/2 closest predecessors, topped up from
	// the other side when one falls short.
	all := union.Copy()
	near := core.NewLeafSet(q.ID, n.cfg.C)
	near.Update(all)
	entries := make([]peer.Descriptor, 0, near.Len()+NumFingers)
	entries = append(entries, near.Successors()...)
	entries = append(entries, near.Predecessors()...)

	// Target-directed part: the best known successor candidate for each
	// of q's finger targets, deduplicated against the base part.
	seen := make(map[id.ID]struct{}, len(entries))
	for _, d := range entries {
		seen[d.ID] = struct{}{}
	}
	for i := 0; i < NumFingers; i++ {
		target := q.ID + id.ID(uint64(1)<<uint(i))
		best := peer.None
		var bestDist uint64
		for _, d := range all {
			dist := id.Succ(target, d.ID)
			if best.Nil() || dist < bestDist {
				best, bestDist = d, dist
			}
		}
		if best.Nil() {
			continue
		}
		if _, dup := seen[best.ID]; dup {
			continue
		}
		seen[best.ID] = struct{}{}
		entries = append(entries, best)
	}
	return Message{Sender: n.self, Entries: entries, Request: request}
}

// Self returns the node's descriptor.
func (n *Node) Self() peer.Descriptor { return n.self }

// Leaf returns the node's successor/predecessor set.
func (n *Node) Leaf() *core.LeafSet { return n.leaf }

// Finger returns finger i (may be a nil descriptor early on).
func (n *Node) Finger(i int) peer.Descriptor { return n.fingers[i] }

// NextHop routes greedily toward key: deliver when this node is the key's
// successor-side root within its leaf span; otherwise forward to the
// closest preceding node among fingers and leaf set.
func (n *Node) NextHop(key id.ID) (peer.Descriptor, bool) {
	if key == n.self.ID {
		return n.self, true
	}
	// If the key lies between our closest predecessor and us, we own it.
	pred := n.leaf.Predecessors()
	if len(pred) > 0 {
		if id.Succ(pred[0].ID, key) <= id.Succ(pred[0].ID, n.self.ID) {
			return n.self, true
		}
	}
	// Closest preceding node: the known node whose ID is farthest
	// clockwise from self while still strictly preceding the key.
	best := peer.None
	var bestAdv uint64
	consider := func(d peer.Descriptor) {
		if d.Nil() || d.ID == n.self.ID {
			return
		}
		adv := id.Succ(n.self.ID, d.ID)
		if adv < id.Succ(n.self.ID, key) && adv > bestAdv {
			best, bestAdv = d, adv
		}
	}
	for i := range n.fingers {
		consider(n.fingers[i])
	}
	for _, d := range n.leaf.Slice() {
		consider(d)
	}
	if best.Nil() {
		// No known node precedes the key: our successor owns it.
		succ := n.leaf.Successors()
		if len(succ) > 0 {
			return succ[0], false
		}
		return n.self, true
	}
	return best, false
}
