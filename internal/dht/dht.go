// Package dht implements a replicated key-value store over the
// bootstrapped overlay — the kind of "application" the paper's
// architecture diagram places on top of the structured overlay layer
// (PAST-style: a key's root is the ring-closest node, replicas go to the
// root's nearest ring neighbours, so responsibility migrates to a replica
// automatically when the root departs).
//
// The serving hot path is built for concurrent load generation:
//
//   - routing reads immutable pastry.Snapshot values from one dense table
//     of atomic pointers indexed by node slot (copy-on-write), so any
//     number of workers route lock-free while Remove repairs routers and
//     a hop loads its snapshot without dereferencing the Node;
//   - departed nodes are not scrubbed from every router eagerly; routes
//     step around them through the cluster's Reachable filter, and only
//     the victim's leaf neighbourhood is repaired and re-replicated
//     (O(changes) per departure instead of the former full
//     pastry.NewMesh rebuild);
//   - values live in per-node arenas (see valueStore) and GetStats
//     appends into caller-owned scratch, so the Get fast path runs at
//     0 allocs/op (alloc-guarded in bench_test.go).
package dht

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/id"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
)

// DefaultReplicas is the replication factor used when none is given.
const DefaultReplicas = 3

// MaxReplicas bounds the replication factor; NewCluster clamps to it. The
// replica set can never exceed the root's leaf neighbourhood anyway, and
// the bound lets op-path dedup scratch live on the stack.
const MaxReplicas = 64

// maxRouteHops bounds one routed operation; prefix routing resolves in
// O(log N) hops, so hitting this means the overlay is broken, not slow.
const maxRouteHops = 128

// Node is one DHT participant: a router and local storage. The cluster
// publishes the router's snapshots.
type Node struct {
	router *pastry.Router
	// mu serialises access to store; routing never takes it.
	mu    sync.Mutex
	store valueStore
}

// NewNode wraps a router with an empty store.
func NewNode(r *pastry.Router) *Node {
	return &Node{router: r}
}

// Addr returns the node's address.
func (n *Node) Addr() peer.Addr { return n.router.Self().Addr }

// Keys returns the number of keys stored locally.
func (n *Node) Keys() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.keys()
}

// Partition is an optional reachability cut: it reports true when a and b
// are on opposite sides and must not exchange messages. It must be safe
// for concurrent use and cheap — it runs on every routing candidate.
type Partition func(a, b peer.Addr) bool

// Cluster evaluates DHT operations over a population of nodes, simulating
// the message flow synchronously (route to root, then replicate to the
// root's ring neighbourhood). Put/Get/GetStats/PutStats are safe for
// concurrent use with each other and with Remove.
type Cluster struct {
	replicas int
	nodes    []*Node
	// snaps[i] is the immutable routing state ops read for nodes[i]. It
	// is republished (under repairMu) whenever the node's router changes.
	snaps []atomic.Pointer[pastry.Snapshot]
	// slots (the node's index in nodes, -1 for none) and alive are both
	// indexed by address over [0, max address], so resolving a routing
	// hop or checking liveness is one array load.
	slots []int32
	alive []atomic.Bool
	live  atomic.Int32
	part  atomic.Pointer[Partition]
	// filtered stays false until the first departure or partition; while
	// it is false every node is reachable and ops route with a nil filter,
	// skipping the per-candidate liveness calls entirely.
	filtered atomic.Bool
	// reach is the single Reachable closure every op shares — built once
	// so the hot path never allocates a capture.
	reach    pastry.Reachable
	repairMu sync.Mutex
}

// NewCluster builds a cluster; replicas <= 0 selects DefaultReplicas and
// values above MaxReplicas are clamped. Node addresses must be distinct
// and non-negative; the address tables span [0, max address], so they
// should also be dense (simnet.AddNode and peer.Addr(i) numbering are).
// It publishes a fresh snapshot of every node's router.
func NewCluster(nodes []*Node, replicas int) *Cluster {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if replicas > MaxReplicas {
		replicas = MaxReplicas
	}
	maxAddr := peer.Addr(-1)
	for _, n := range nodes {
		maxAddr = max(maxAddr, n.Addr())
	}
	c := &Cluster{
		replicas: replicas,
		nodes:    nodes,
		snaps:    make([]atomic.Pointer[pastry.Snapshot], len(nodes)),
		slots:    make([]int32, maxAddr+1),
		alive:    make([]atomic.Bool, maxAddr+1),
	}
	for a := range c.slots {
		c.slots[a] = -1
	}
	for i, n := range nodes {
		c.snaps[i].Store(n.router.Snapshot())
		c.slots[n.Addr()] = int32(i)
		c.alive[n.Addr()].Store(true)
	}
	c.live.Store(int32(len(nodes)))
	c.reach = func(from, to peer.Addr) bool {
		if !c.isAlive(to) {
			return false
		}
		if p := c.part.Load(); p != nil && (*p)(from, to) {
			return false
		}
		return true
	}
	return c
}

// filter returns the Reachable the current op should route with: nil
// while the cluster is clean (everything reachable — the fast path), the
// shared closure once any departure or partition makes filtering real.
func (c *Cluster) filter() pastry.Reachable {
	if c.filtered.Load() {
		return c.reach
	}
	return nil
}

// isAlive reports whether the address belongs to a live node.
func (c *Cluster) isAlive(a peer.Addr) bool {
	return a >= 0 && int(a) < len(c.alive) && c.alive[a].Load()
}

// SetPartition installs (or, with nil, clears) a reachability cut that
// every subsequent operation honours: routing, replica placement, and
// replica reads all stay on the originating side.
func (c *Cluster) SetPartition(p Partition) {
	if p == nil {
		c.part.Store(nil)
		return
	}
	// Publish the filtered flag before the cut so no op can observe the
	// partition without also routing through the filter.
	c.filtered.Store(true)
	c.part.Store(&p)
}

// Errors returned by cluster operations.
var (
	ErrNotFound = errors.New("dht: key not found")
	ErrNoRoute  = errors.New("dht: routing failed")
)

// OpStats reports per-operation detail the load plane records. Fields are
// only written, never read, by the cluster — callers may reuse one struct
// across calls.
type OpStats struct {
	// Hops is the number of routed hops from the origin to the key root.
	Hops int
	// Stored is the number of replicas that accepted a Put.
	Stored int
	// Want is the replication target at op time: the configured factor
	// clamped to the live population. Stored < Want means the write is
	// under-replicated (short leaf sets post-churn, or a partition hid
	// part of the neighbourhood) — the degraded-replication signal the
	// load plane counts.
	Want int
}

// slotOf resolves an address to its node slot.
func (c *Cluster) slotOf(addr peer.Addr) (int32, bool) {
	if addr < 0 || int(addr) >= len(c.slots) || c.slots[addr] < 0 {
		return 0, false
	}
	return c.slots[addr], true
}

// route walks the key from the origin to its live root, returning the
// root's slot and the hop count. Zero-alloc: every step reads an
// immutable snapshot through an atomic pointer.
func (c *Cluster) route(from peer.Addr, key id.ID) (int32, int, error) {
	if !c.isAlive(from) {
		return 0, 0, ErrNoRoute
	}
	slot := c.slots[from]
	filt := c.filter()
	hops := 0
	for {
		next, done := c.snaps[slot].Load().NextHopAlive(key, from, filt)
		if done {
			return slot, hops, nil
		}
		hops++
		if hops > maxRouteHops {
			return 0, hops, ErrNoRoute
		}
		ns, ok := c.slotOf(next.Addr)
		if !ok {
			return 0, hops, ErrNoRoute
		}
		slot = ns
	}
}

// replicaCursor walks a key root's replica set — the root, then its ring
// neighbours alternating successor/predecessor as PAST does — skipping
// unreachable peers and deduplicating addresses (succ and pred overlap on
// small rings). It lives on the caller's stack; no allocation.
type replicaCursor struct {
	c          *Cluster
	filt       pastry.Reachable // nil while the cluster is clean
	origin     peer.Addr
	succ, pred []peer.Descriptor
	rootSlot   int32
	rootAddr   peer.Addr
	k          int // next candidate index: even → succ[k/2], odd → pred[k/2]
	rootDone   bool
	nseen      int
	seen       [MaxReplicas]peer.Addr
}

func (c *Cluster) replicaCursor(origin peer.Addr, rootSlot int32) replicaCursor {
	snap := c.snaps[rootSlot].Load()
	succ, pred := snap.Leaf()
	return replicaCursor{
		c:        c,
		filt:     c.filter(),
		origin:   origin,
		succ:     succ,
		pred:     pred,
		rootSlot: rootSlot,
		rootAddr: snap.Self().Addr,
	}
}

// next returns the slot of the next replica; ok is false once the set is
// exhausted or the replication factor is met.
func (cur *replicaCursor) next() (int32, bool) {
	c := cur.c
	if !cur.rootDone {
		cur.rootDone = true
		cur.seen[0] = cur.rootAddr
		cur.nseen = 1
		return cur.rootSlot, true
	}
	for cur.nseen < c.replicas {
		idx := cur.k
		cur.k++
		var d peer.Descriptor
		if idx%2 == 0 {
			si := idx / 2
			if si >= len(cur.succ) {
				if idx/2 >= len(cur.pred) {
					return 0, false // both directions exhausted
				}
				continue
			}
			d = cur.succ[si]
		} else {
			pi := idx / 2
			if pi >= len(cur.pred) {
				if (idx+1)/2 >= len(cur.succ) {
					return 0, false
				}
				continue
			}
			d = cur.pred[pi]
		}
		if cur.filt != nil && !cur.filt(cur.origin, d.Addr) {
			continue
		}
		dup := false
		for i := 0; i < cur.nseen; i++ {
			if cur.seen[i] == d.Addr {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		slot, ok := c.slotOf(d.Addr)
		if !ok {
			continue
		}
		cur.seen[cur.nseen] = d.Addr
		cur.nseen++
		return slot, true
	}
	return 0, false
}

// PutStats routes the key to its root and stores the value at the root
// and its ring neighbours, recording hops and achieved replication in st.
// Stored < Want reports a degraded write without failing it.
func (c *Cluster) PutStats(from peer.Addr, key id.ID, value []byte, st *OpStats) error {
	rootSlot, hops, err := c.route(from, key)
	if err != nil {
		return err
	}
	st.Hops = hops
	want := c.replicas
	if live := int(c.live.Load()); live < want {
		want = live
	}
	st.Want = want
	cur := c.replicaCursor(from, rootSlot)
	stored := 0
	for {
		slot, ok := cur.next()
		if !ok {
			break
		}
		n := c.nodes[slot]
		n.mu.Lock()
		n.store.put(key, value)
		n.mu.Unlock()
		stored++
	}
	st.Stored = stored
	return nil
}

// Put routes the key from the given node to its root and stores the value
// at the root and at its replicas-1 closest ring neighbours. It returns
// the addresses that stored the value.
func (c *Cluster) Put(from peer.Addr, key id.ID, value []byte) ([]peer.Addr, error) {
	rootSlot, _, err := c.route(from, key)
	if err != nil {
		return nil, err
	}
	stored := make([]peer.Addr, 0, c.replicas)
	cur := c.replicaCursor(from, rootSlot)
	for {
		slot, ok := cur.next()
		if !ok {
			break
		}
		n := c.nodes[slot]
		n.mu.Lock()
		n.store.put(key, value)
		n.mu.Unlock()
		stored = append(stored, n.Addr())
	}
	return stored, nil
}

// GetStats routes the key to its root and appends the first replica's
// value to dst, recording routed hops in st. Callers that reuse dst read
// at 0 allocs/op; on ErrNotFound/ErrNoRoute dst is returned unchanged.
func (c *Cluster) GetStats(dst []byte, from peer.Addr, key id.ID, st *OpStats) ([]byte, error) {
	rootSlot, hops, err := c.route(from, key)
	if err != nil {
		return dst, err
	}
	st.Hops = hops
	cur := c.replicaCursor(from, rootSlot)
	for {
		slot, ok := cur.next()
		if !ok {
			break
		}
		n := c.nodes[slot]
		n.mu.Lock()
		out, found := n.store.get(key, dst)
		n.mu.Unlock()
		if found {
			return out, nil
		}
	}
	return dst, ErrNotFound
}

// Get routes the key from the given node to its root and returns a copy
// of the stored value, falling back to the root's replica set — which is
// exactly where responsibility migrates when nodes near the key depart.
func (c *Cluster) Get(from peer.Addr, key id.ID) ([]byte, error) {
	var st OpStats
	out, err := c.GetStats(nil, from, key, &st)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, err
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

// Remove drops a node from the cluster (a crash). Cost is O(changes):
// the victim is marked dead (routes step around it via the Reachable
// filter — no global scrub), only its leaf neighbourhood repairs its
// routing state and republishes snapshots, and that neighbourhood
// re-replicates its keys so the replication factor heals instead of
// eroding under cumulative churn.
func (c *Cluster) Remove(addr peer.Addr) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	if !c.isAlive(addr) {
		return
	}
	// Publish the filtered flag before the death so no op can observe the
	// dead node without also routing through the filter.
	c.filtered.Store(true)
	c.alive[addr].Store(false)
	c.live.Add(-1)
	vs := c.slots[addr]
	victimID := c.nodes[vs].router.Self().ID

	// The victim's live leaf neighbourhood: the routers that listed it,
	// the peers that inherit its key range, and the candidates they adopt
	// to refill their own structures.
	cand := c.liveLeaf(c.snaps[vs].Load())
	for _, d := range cand {
		ms, _ := c.slotOf(d.Addr)
		m := c.nodes[ms].router
		m.Repair(victimID, cand)
		c.snaps[ms].Store(m.Snapshot())
	}
	c.migrate(cand)
}

// Join is the inverse of Remove: it revives a node that the cluster knows
// but currently counts dead — a standby joining a flash crowd, or a
// crashed node recovering. Under the repair lock the joiner is marked
// alive, the live peers in its leaf neighbourhood adopt it (candidates ∪
// {joiner}, the arrival-side mirror of Remove's Repair call), the joiner
// refreshes its own structures against that live neighbourhood, and the
// neighbourhood re-replicates so the key range the joiner now owns
// actually reaches it. A recovering node re-enters with whatever its
// store held before the crash; re-replication reconciles its key range,
// and a fresh standby simply starts empty.
func (c *Cluster) Join(addr peer.Addr) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	slot, ok := c.slotOf(addr)
	if !ok || c.alive[addr].Load() {
		return
	}
	joiner := c.nodes[slot]
	jdesc := joiner.router.Self()

	c.alive[addr].Store(true)
	c.live.Add(1)

	// The joiner's live leaf neighbourhood, read from its last published
	// snapshot. The snapshot may be stale — peers died while the joiner
	// was down — so filter to the currently live ones.
	cand := c.liveLeaf(c.snaps[slot].Load())
	withJoiner := append(append(make([]peer.Descriptor, 0, len(cand)+1), cand...), jdesc)
	for _, d := range cand {
		ms, _ := c.slotOf(d.Addr)
		m := c.nodes[ms].router
		m.Adopt(withJoiner)
		c.snaps[ms].Store(m.Snapshot())
	}
	// Refresh the joiner against the neighbourhood as it is now and
	// republish, so ops routing through it see live peers again.
	joiner.router.Adopt(cand)
	c.snaps[slot].Store(joiner.router.Snapshot())

	c.migrate(withJoiner)
}

// liveLeaf returns the live entries of a snapshot's leaf lists,
// successors first.
func (c *Cluster) liveLeaf(s *pastry.Snapshot) []peer.Descriptor {
	succ, pred := s.Leaf()
	out := make([]peer.Descriptor, 0, len(succ)+len(pred))
	for _, side := range [2][]peer.Descriptor{succ, pred} {
		for _, d := range side {
			if c.isAlive(d.Addr) {
				out = append(out, d)
			}
		}
	}
	return out
}

// migrate re-replicates every key held in the given neighbourhood: each
// key is re-routed to its current root and re-stored across the current
// replica set. Work is proportional to the keys the departed node's
// neighbourhood holds, not to the cluster or key population.
func (c *Cluster) migrate(neighbourhood []peer.Descriptor) {
	var keys []id.ID
	var val []byte
	for _, d := range neighbourhood {
		ms, ok := c.slotOf(d.Addr)
		if !ok {
			continue
		}
		m := c.nodes[ms]
		m.mu.Lock()
		keys = keys[:0]
		m.store.refs.Iter(func(k id.ID, _ valRef) bool {
			keys = append(keys, k)
			return true
		})
		m.mu.Unlock()
		from := d.Addr
		for _, k := range keys {
			m.mu.Lock()
			v, found := m.store.get(k, val[:0])
			m.mu.Unlock()
			if !found {
				continue
			}
			val = v
			rootSlot, _, err := c.route(from, k)
			if err != nil {
				continue
			}
			cur := c.replicaCursor(from, rootSlot)
			for {
				slot, ok := cur.next()
				if !ok {
					break
				}
				n := c.nodes[slot]
				n.mu.Lock()
				n.store.put(k, val)
				n.mu.Unlock()
			}
		}
	}
}

// Len returns the number of live nodes.
func (c *Cluster) Len() int { return int(c.live.Load()) }

// LiveAddrs appends the addresses of all live nodes to dst (slot order,
// deterministic) and returns it.
func (c *Cluster) LiveAddrs(dst []peer.Addr) []peer.Addr {
	for _, n := range c.nodes {
		if c.alive[n.Addr()].Load() {
			dst = append(dst, n.Addr())
		}
	}
	return dst
}
