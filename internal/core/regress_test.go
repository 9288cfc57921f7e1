package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
)

// TestSelectPeerRebootstrapAfterLosingLeafSet covers the recovery path a
// node takes when every leaf-set entry has been removed (e.g. all evicted
// by the failure detector): selectPeer must fall back to the sampling
// service rather than going silent forever.
func TestSelectPeerRebootstrapAfterLosingLeafSet(t *testing.T) {
	self := peer.Descriptor{ID: 1000, Addr: 0}
	fallback := peer.Descriptor{ID: 7, Addr: 3}
	neighbours := []peer.Descriptor{{ID: 900, Addr: 1}, {ID: 1100, Addr: 2}}
	n, err := NewNode(self, testConfig(), sampling.Fixed([]peer.Descriptor{fallback}))
	if err != nil {
		t.Fatal(err)
	}
	n.Leaf().Update(neighbours)
	rng := rand.New(rand.NewSource(1))
	if q := n.selectPeer(rng); q.Nil() || q.ID == fallback.ID {
		t.Fatalf("with a populated leaf set selectPeer should pick a neighbour, got %s", q)
	}
	for _, d := range neighbours {
		n.Leaf().Remove(d.ID)
	}
	if got := n.Leaf().Len(); got != 0 {
		t.Fatalf("leaf set not emptied: %d entries", got)
	}
	if q := n.selectPeer(rng); q.ID != fallback.ID {
		t.Errorf("after losing all leaf entries selectPeer = %s, want sampler fallback %s", q, fallback)
	}
}

// TestFilterTombstonedPreservesSharedSlice checks the receiver-owns-message
// contract: filtering tombstoned entries must not rewrite the incoming
// backing array, which an engine may share across several receivers of one
// broadcast message.
func TestFilterTombstonedPreservesSharedSlice(t *testing.T) {
	self := peer.Descriptor{ID: 1000, Addr: 0}
	cfg := testConfig()
	cfg.EvictAfterMisses = 2
	n, err := NewNode(self, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	n.tombs.Put(2, n.ticks+tombstoneTTL) // ID 2 currently blacklisted
	shared := []peer.Descriptor{{ID: 1, Addr: 1}, {ID: 2, Addr: 2}, {ID: 3, Addr: 3}}
	snapshot := make([]peer.Descriptor, len(shared))
	copy(snapshot, shared)

	got := n.filterTombstoned(shared)
	want := []peer.Descriptor{{ID: 1, Addr: 1}, {ID: 3, Addr: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(shared, snapshot) {
		t.Errorf("input slice mutated: %v, want %v", shared, snapshot)
	}

	// No-removal path may return the input unchanged (and must not copy).
	clean := []peer.Descriptor{{ID: 5, Addr: 5}}
	if out := n.filterTombstoned(clean); &out[0] != &clean[0] {
		t.Error("no-removal filter should return the input slice as-is")
	}

	// An expired tombstone is dropped lazily and its entry passes through.
	expiry, _ := n.tombs.Get(2)
	n.ticks = expiry + 1
	if out := n.filterTombstoned(shared); !reflect.DeepEqual(out, snapshot) {
		t.Errorf("expired tombstone still filtered: %v", out)
	}
	if n.tombs.Contains(2) {
		t.Error("expired tombstone not collected")
	}
}

// TestHandleTombstoneForkAllocs pins the fork's storage: a message that
// carries a tombstoned entry is filtered into a pooled buffer that Handle
// hands back, so steady-state handling under churn allocates nothing.
func TestHandleTombstoneForkAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.EvictAfterMisses = 2
	n, err := NewNode(peer.Descriptor{ID: 1000, Addr: 0}, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	n.tombs.Put(2, n.ticks+tombstoneTTL)
	m := &Message{Sender: peer.Descriptor{ID: 7, Addr: 7},
		Entries: []peer.Descriptor{{ID: 1, Addr: 1}, {ID: 2, Addr: 2}, {ID: 3, Addr: 3}}}
	n.Handle(nil, 7, m) // warm: entries learned, fork buffer grown
	if n.Leaf().Contains(2) || !n.Leaf().Contains(3) {
		t.Fatalf("tombstoned entry not filtered: leaf = %v", n.Leaf().Slice())
	}
	if avg := testing.AllocsPerRun(200, func() { n.Handle(nil, 7, m) }); avg > 0 {
		t.Errorf("Handle with a tombstoned entry allocates %.1f times per message, want 0", avg)
	}
}

// TestCreateMessageScratchStable checks that the per-node scratch buffers
// reused across createMessage calls never leak into a shipped message: two
// consecutive messages must have disjoint backing arrays and identical
// content to a freshly-built node's message.
func TestCreateMessageScratchStable(t *testing.T) {
	world := make([]peer.Descriptor, 64)
	for i := range world {
		world[i] = peer.Descriptor{ID: testID(i), Addr: peer.Addr(i)}
	}
	self := world[0]
	dest := world[1]
	build := func() *Node {
		n, err := NewNode(self, testConfig(), sampling.Fixed(world[2:10]))
		if err != nil {
			t.Fatal(err)
		}
		n.Leaf().Update(world[10:40])
		n.Table().AddAll(world[40:])
		return n
	}
	n := build()
	m1 := n.createMessage(dest, true)
	m2 := n.createMessage(dest, true)
	if !reflect.DeepEqual(m1.Entries, m2.Entries) {
		t.Fatal("same state produced different messages")
	}
	if len(m1.Entries) > 0 && &m1.Entries[0] == &m2.Entries[0] {
		t.Error("messages share a backing array: scratch escaped")
	}
	fresh := build().createMessage(dest, true)
	if !reflect.DeepEqual(m1.Entries, fresh.Entries) {
		t.Error("scratch-reusing node diverged from freshly built node")
	}
}

func testID(i int) id.ID { return id.ID(0x9e3779b97f4a7c15 * uint64(i+1)) }
