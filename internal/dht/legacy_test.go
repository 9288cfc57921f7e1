package dht

// The pre-PR 8 synchronous cluster, kept as a benchmark baseline (PR 5
// idiom): map-based node/value lookup, per-op value copies, and a full
// pastry.NewMesh rebuild (with every node's leaf snapshot) on every
// departure. BenchmarkDHTOps and BenchmarkClusterRemove measure the
// rewrite against it.

import (
	"fmt"

	"repro/internal/id"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
)

type legacyNode struct {
	router *pastry.Router
	// snap is the router's state as of the last mesh (re)build; replicaSet
	// reads its leaf lists.
	snap *pastry.Snapshot
	data map[id.ID][]byte
}

type legacyCluster struct {
	nodes    map[peer.Addr]*legacyNode
	mesh     *pastry.Mesh
	replicas int
}

func newLegacyCluster(routers []*pastry.Router, replicas int) *legacyCluster {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	byAddr := make(map[peer.Addr]*legacyNode, len(routers))
	for _, r := range routers {
		byAddr[r.Self().Addr] = &legacyNode{router: r, snap: r.Snapshot(), data: make(map[id.ID][]byte)}
	}
	return &legacyCluster{
		nodes:    byAddr,
		mesh:     pastry.NewMesh(routers, 0),
		replicas: replicas,
	}
}

func (c *legacyCluster) Put(from peer.Addr, key id.ID, value []byte) ([]peer.Addr, error) {
	root, err := c.root(from, key)
	if err != nil {
		return nil, err
	}
	stored := make([]peer.Addr, 0, c.replicas)
	for _, addr := range c.replicaSet(root) {
		node := c.nodes[addr]
		cp := make([]byte, len(value))
		copy(cp, value)
		node.data[key] = cp
		stored = append(stored, addr)
	}
	return stored, nil
}

func (c *legacyCluster) Get(from peer.Addr, key id.ID) ([]byte, error) {
	root, err := c.root(from, key)
	if err != nil {
		return nil, err
	}
	for _, addr := range c.replicaSet(root) {
		if v, ok := c.nodes[addr].data[key]; ok {
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
}

func (c *legacyCluster) Remove(addr peer.Addr) {
	victim, ok := c.nodes[addr]
	if !ok {
		return
	}
	delete(c.nodes, addr)
	victimID := victim.router.Self().ID
	routers := make([]*pastry.Router, 0, len(c.nodes))
	for _, n := range c.nodes {
		n.router.Forget(victimID)
		n.snap = n.router.Snapshot()
		routers = append(routers, n.router)
	}
	c.mesh = pastry.NewMesh(routers, 0)
}

func (c *legacyCluster) root(from peer.Addr, key id.ID) (*legacyNode, error) {
	path, err := c.mesh.Route(from, key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, err)
	}
	node, ok := c.nodes[path[len(path)-1]]
	if !ok {
		return nil, fmt.Errorf("%w: root %d unknown", ErrNoRoute, path[len(path)-1])
	}
	return node, nil
}

func (c *legacyCluster) replicaSet(root *legacyNode) []peer.Addr {
	out := []peer.Addr{root.router.Self().Addr}
	succ, pred := root.snap.Leaf()
	i, j := 0, 0
	for len(out) < c.replicas {
		progressed := false
		if i < len(succ) {
			if _, live := c.nodes[succ[i].Addr]; live {
				out = append(out, succ[i].Addr)
				progressed = true
			}
			i++
		}
		if len(out) >= c.replicas {
			break
		}
		if j < len(pred) {
			if _, live := c.nodes[pred[j].Addr]; live {
				out = append(out, pred[j].Addr)
				progressed = true
			}
			j++
		}
		if i >= len(succ) && j >= len(pred) && !progressed {
			break
		}
	}
	return out
}
