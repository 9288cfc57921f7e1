// Package pastry implements Pastry-style greedy prefix routing on top of
// the structures produced by the bootstrapping service. It demonstrates the
// paper's central claim: the leaf sets and prefix tables built by the
// bootstrap protocol are, verbatim, the routing state of prefix-based DHTs
// such as Pastry, so a jump-started network can route immediately.
package pastry

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
)

// Router holds one node's bootstrapped routing state. Routes are taken
// over its Snapshot, which carries Pastry's next-hop rule.
type Router struct {
	self  peer.Descriptor
	leaf  *core.LeafSet
	table *core.PrefixTable
	b     int
}

// FromBootstrap adopts a bootstrap node's structures. The router shares the
// underlying leaf set and prefix table; ongoing protocol updates are
// visible to the router, exactly as in a live deployment.
func FromBootstrap(n *core.Node) *Router {
	return &Router{
		self:  n.Self(),
		leaf:  n.Leaf(),
		table: n.Table(),
		b:     n.Config().B,
	}
}

// New builds a router from explicit structures. The load campaign's
// perfect boot (cmd/sim) and the benchmark's perfect-table cluster (its direct DHT and route
// timings) use it with tables they filled without running the bootstrap
// protocol.
func New(self peer.Descriptor, leaf *core.LeafSet, table *core.PrefixTable, b int) *Router {
	return &Router{self: self, leaf: leaf, table: table, b: b}
}

// Self returns the descriptor of the owning node.
func (r *Router) Self() peer.Descriptor { return r.self }

// Forget removes a departed peer from the routing structures. Higher
// layers call this when their failure detection declares a peer dead.
func (r *Router) Forget(nodeID id.ID) {
	r.leaf.Remove(nodeID)
	r.table.Remove(nodeID)
}

// Mesh evaluates routing over a set of routers indexed by address,
// simulating message forwarding hop by hop.
type Mesh struct {
	snaps   map[peer.Addr]*Snapshot
	maxHops int
}

// NewMesh builds an evaluator over the given routers as they are now: it
// routes over one Snapshot per router taken here, so it must be rebuilt
// after the routers change. maxHops bounds route length; <= 0 selects a
// generous default.
func NewMesh(routers []*Router, maxHops int) *Mesh {
	if maxHops <= 0 {
		maxHops = 128
	}
	m := &Mesh{snaps: make(map[peer.Addr]*Snapshot, len(routers)), maxHops: maxHops}
	for _, r := range routers {
		m.snaps[r.self.Addr] = r.Snapshot()
	}
	return m
}

// ErrRouteFailed is returned when a route exceeds the hop budget or visits
// an unknown node.
var ErrRouteFailed = errors.New("pastry: route failed")

// Route forwards key from the given start node until some node declares
// itself the root. It returns the path of node addresses visited, starting
// at start and ending at the root.
func (m *Mesh) Route(start peer.Addr, key id.ID) ([]peer.Addr, error) {
	cur, ok := m.snaps[start]
	if !ok {
		return nil, fmt.Errorf("%w: unknown start %d", ErrRouteFailed, start)
	}
	path := []peer.Addr{start}
	for hop := 0; hop < m.maxHops; hop++ {
		next, done := cur.NextHopAlive(key, start, nil)
		if done {
			return path, nil
		}
		ns, ok := m.snaps[next.Addr]
		if !ok {
			return path, fmt.Errorf("%w: hop to unknown node %s", ErrRouteFailed, next)
		}
		path = append(path, next.Addr)
		cur = ns
	}
	return path, fmt.Errorf("%w: exceeded %d hops", ErrRouteFailed, m.maxHops)
}
