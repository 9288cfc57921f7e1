package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/testenv"
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

// TestFilterTombstonedPreservesSharedSlice checks the tombstone filter:
// blacklisted entries are dropped, a slice with nothing to drop comes back
// as-is, and an expired tombstone lets its entry through and is collected.
// The filter compacts the received slice in place (the receiver owns it),
// so each call gets its own copy of the input.
func TestFilterTombstonedPreservesSharedSlice(t *testing.T) {
	self := peer.Descriptor{ID: 1000, Addr: 0}
	cfg := testConfig()
	cfg.EvictAfterMisses = 2
	n, err := NewNode(self, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	n.evict.tombs.Put(2, n.evict.ticks+tombstoneTTL) // ID 2 currently blacklisted
	received := []peer.Descriptor{{ID: 1, Addr: 1}, {ID: 2, Addr: 2}, {ID: 3, Addr: 3}}

	f := n.newTombFilter()
	got := n.filterTombstoned(slices.Clone(received), &f)
	want := []peer.Descriptor{{ID: 1, Addr: 1}, {ID: 3, Addr: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered = %v, want %v", got, want)
	}

	// No-removal path may return the input unchanged (and must not copy).
	clean := []peer.Descriptor{{ID: 5, Addr: 5}}
	if out := n.filterTombstoned(clean, &f); &out[0] != &clean[0] {
		t.Error("no-removal filter should return the input slice as-is")
	}

	// An expired tombstone is dropped lazily and its entry passes through.
	expiry, _ := n.evict.tombs.Get(2)
	n.evict.ticks = expiry + 1
	if out := n.filterTombstoned(slices.Clone(received), &f); !reflect.DeepEqual(out, received) {
		t.Errorf("expired tombstone still filtered: %v", out)
	}
	if n.evict.tombs.Contains(2) {
		t.Error("expired tombstone not collected")
	}
}

// TestHandleTombstoneForkAllocs checks that handling a message carrying a
// tombstoned entry and known certificates allocates nothing against a
// 64-tombstone table: the tomb filter lives on the stack and the filter
// compacts the message's own entries. Every iteration handles a fresh
// message, its entries rewritten from the original.
func TestHandleTombstoneForkAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := testConfig()
	cfg.EvictAfterMisses = 2
	n, err := NewNode(peer.Descriptor{ID: 1000, Addr: 0}, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	n.evict.tombs.Put(2, n.evict.ticks+tombstoneTTL)
	for i := range id.ID(63) {
		n.evict.tombs.Put(5000+i, n.evict.ticks+tombstoneTTL)
	}
	entries := []peer.Descriptor{{ID: 1, Addr: 1}, {ID: 2, Addr: 2}, {ID: 3, Addr: 3}}
	m := &Message{Sender: peer.Descriptor{ID: 7, Addr: 7}, Entries: make([]peer.Descriptor, len(entries)),
		Dead: []id.ID{2, 5000, 5010}}
	handle := func() {
		m.Entries = append(m.Entries[:0], entries...)
		n.Handle(nil, 7, m)
	}
	handle() // warm: entries learned
	if n.Leaf().Contains(2) || !n.Leaf().Contains(3) {
		t.Fatalf("tombstoned entry not filtered: leaf = %v", n.Leaf().Slice())
	}
	if got := n.evict.tombs.Len(); got != 64 {
		t.Fatalf("%d tombstones, want 64", got)
	}
	if avg := testing.AllocsPerRun(200, handle); avg > 0 {
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
