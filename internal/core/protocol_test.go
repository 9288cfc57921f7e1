package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.C = 8
	cfg.CR = 5
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{B: 0, K: 3, C: 20, CR: 30, Delta: 10},
		{B: 9, K: 3, C: 20, CR: 30, Delta: 10},
		{B: 5, K: 3, C: 20, CR: 30, Delta: 10}, // 5 does not divide 64
		{B: 4, K: 0, C: 20, CR: 30, Delta: 10},
		{B: 4, K: MaxK + 1, C: 20, CR: 30, Delta: 10}, // a fill count is one byte
		{B: 4, K: 3, C: 1, CR: 30, Delta: 10},
		{B: 4, K: 3, C: 21, CR: 30, Delta: 10}, // odd C
		{B: 4, K: 3, C: 20, CR: -1, Delta: 10},
		{B: 4, K: 3, C: 20, CR: 30, Delta: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumRows() != 16 || cfg.NumCols() != 16 {
		t.Errorf("rows/cols = %d/%d, want 16/16", cfg.NumRows(), cfg.NumCols())
	}
	if cfg.TableCapacity() != 16*16*3 {
		t.Errorf("capacity = %d, want 768", cfg.TableCapacity())
	}
}

func TestNewNodeValidation(t *testing.T) {
	self := peer.Descriptor{ID: 1, Addr: 0}
	if _, err := NewNode(self, Config{}, sampling.Fixed(nil)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewNode(self, DefaultConfig(), nil); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := NewNode(self, DefaultConfig(), sampling.Fixed(nil)); err != nil {
		t.Errorf("valid node rejected: %v", err)
	}
}

func TestCreateMessageClosestToPeer(t *testing.T) {
	self := peer.Descriptor{ID: 1000, Addr: 0}
	// Sampler returns peers clustered near q and far from q.
	pool := []peer.Descriptor{
		{ID: 5001, Addr: 1}, {ID: 5002, Addr: 2}, {ID: 5003, Addr: 3},
		{ID: 90000, Addr: 4}, {ID: 90001, Addr: 5},
	}
	cfg := testConfig()
	cfg.C = 4
	cfg.CR = 5
	n, err := NewNode(self, cfg, sampling.Fixed(pool))
	if err != nil {
		t.Fatal(err)
	}
	n.leaf.Update(pool)
	q := peer.Descriptor{ID: 5000, Addr: 9}
	m := n.createMessage(q, true)
	if !m.Request {
		t.Error("request flag lost")
	}
	if m.Sender.ID != self.ID {
		t.Error("sender not self")
	}
	if len(m.Entries) < cfg.C {
		t.Fatalf("message has %d entries, want at least %d", len(m.Entries), cfg.C)
	}
	// The first C entries must be the closest to q: 5001, 5002, 5003 then
	// either self(1000) — distance 4000 — vs 90000 (85000): 1000 wins.
	wantClosest := map[id.ID]bool{5001: true, 5002: true, 5003: true, 1000: true}
	for i := 0; i < cfg.C; i++ {
		if !wantClosest[m.Entries[i].ID] {
			t.Errorf("entry %d = %s not among closest to q", i, m.Entries[i])
		}
	}
}

func TestCreateMessageIncludesPrefixPart(t *testing.T) {
	// q and a table entry share a long prefix; even if the entry is far
	// in ring distance it must ride along in the prefix part.
	self := peer.Descriptor{ID: 0x1000000000000000, Addr: 0}
	cfg := testConfig()
	cfg.CR = 0
	n, err := NewNode(self, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	q := peer.Descriptor{ID: 0xF000000000000001, Addr: 9}
	sharesPrefix := peer.Descriptor{ID: 0xF0000000FFFFFFFF, Addr: 7}
	n.table.Add(sharesPrefix)
	// Fill the leaf set with IDs near self so the close-to-q part does
	// not accidentally include the prefix peer.
	near := make([]peer.Descriptor, 0, cfg.C)
	for i := 1; i <= cfg.C; i++ {
		near = append(near, peer.Descriptor{ID: self.ID + id.ID(i), Addr: peer.Addr(i)})
	}
	n.leaf.Update(near)
	m := n.createMessage(q, false)
	found := false
	for _, d := range m.Entries {
		if d.ID == sharesPrefix.ID {
			found = true
		}
	}
	if !found {
		t.Error("descriptor sharing a prefix with q missing from message")
	}
}

func TestCreateMessageAblationDisablesFeedback(t *testing.T) {
	self := peer.Descriptor{ID: 0x1000000000000000, Addr: 0}
	cfg := testConfig()
	cfg.CR = 0
	cfg.DisablePrefixFeedback = true
	n, err := NewNode(self, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	q := peer.Descriptor{ID: 0xF000000000000001, Addr: 9}
	far := peer.Descriptor{ID: 0xF0000000FFFFFFFF, Addr: 7}
	n.table.Add(far)
	near := make([]peer.Descriptor, 0, cfg.C)
	for i := 1; i <= cfg.C; i++ {
		near = append(near, peer.Descriptor{ID: self.ID + id.ID(i), Addr: peer.Addr(i)})
	}
	n.leaf.Update(near)
	m := n.createMessage(q, false)
	for _, d := range m.Entries {
		if d.ID == far.ID {
			t.Error("ablated protocol leaked a prefix-table entry into the message")
		}
	}
	if len(m.Entries) != cfg.C {
		t.Errorf("ablated message has %d entries, want exactly %d", len(m.Entries), cfg.C)
	}
}

func TestSelectPeerFromCloserHalf(t *testing.T) {
	self := peer.Descriptor{ID: 1000, Addr: 0}
	cfg := testConfig()
	n, err := NewNode(self, cfg, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	n.leaf.Update([]peer.Descriptor{
		{ID: 1001, Addr: 1}, {ID: 1002, Addr: 2}, {ID: 1003, Addr: 3}, {ID: 1004, Addr: 4},
		{ID: 999, Addr: 5}, {ID: 998, Addr: 6}, {ID: 997, Addr: 7}, {ID: 996, Addr: 8},
	})
	rng := rand.New(rand.NewSource(1))
	closerHalf := map[id.ID]bool{1001: true, 1002: true, 999: true, 998: true}
	for i := 0; i < 200; i++ {
		q := n.selectPeer(rng)
		if !closerHalf[q.ID] {
			t.Fatalf("selectPeer returned %s, outside the closer half", q)
		}
	}
}

func TestSelectPeerFallsBackToSampler(t *testing.T) {
	self := peer.Descriptor{ID: 1000, Addr: 0}
	fallback := peer.Descriptor{ID: 7, Addr: 3}
	n, err := NewNode(self, testConfig(), sampling.Fixed([]peer.Descriptor{fallback}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if q := n.selectPeer(rng); q.ID != fallback.ID {
		t.Errorf("fallback peer = %s, want %s", q, fallback)
	}
	empty, err := NewNode(self, testConfig(), sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	if q := empty.selectPeer(rng); !q.Nil() {
		t.Errorf("empty world should yield nil peer, got %s", q)
	}
}

func TestMessageWireSize(t *testing.T) {
	m := Message{Sender: peer.Descriptor{ID: 1}, Entries: make([]peer.Descriptor, 10)}
	if m.WireSize() != 11 {
		t.Errorf("WireSize = %d, want 11", m.WireSize())
	}
}

// TestTwoNodeExchange runs the protocol between two nodes in a tiny simnet
// and checks both ends learn each other.
func TestTwoNodeExchange(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	d1 := peer.Descriptor{ID: 100, Addr: net.AddNode()}
	d2 := peer.Descriptor{ID: 200, Addr: net.AddNode()}
	cfg := testConfig()
	n1, err := NewNode(d1, cfg, sampling.Fixed([]peer.Descriptor{d2}))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(d2, cfg, sampling.Fixed([]peer.Descriptor{d1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(d1.Addr, ProtoID, invariantChecked{n1, t}, cfg.Delta, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(d2.Addr, ProtoID, invariantChecked{n2, t}, cfg.Delta, 1); err != nil {
		t.Fatal(err)
	}
	net.Run(cfg.Delta * 5)
	if !n1.Leaf().Contains(d2.ID) {
		t.Error("n1 never learned n2")
	}
	if !n2.Leaf().Contains(d1.ID) {
		t.Error("n2 never learned n1")
	}
	if n1.Table().Len() == 0 || n2.Table().Len() == 0 {
		t.Error("prefix tables stayed empty")
	}
	if n1.Exchanges() == 0 || n2.Exchanges() == 0 {
		t.Error("exchange counters stayed zero")
	}
}

// TestHandleIgnoresForeignMessages ensures robustness against payloads of
// other protocols arriving on the same ProtoID.
func TestHandleIgnoresForeignMessages(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	d1 := peer.Descriptor{ID: 100, Addr: net.AddNode()}
	n1, err := NewNode(d1, testConfig(), sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(d1.Addr, ProtoID, n1, testConfig().Delta, 0); err != nil {
		t.Fatal(err)
	}
	net.Send(peer.Addr(0), d1.Addr, ProtoID, "not a bootstrap message")
	net.Run(100) // must not panic
}

// TestCreateMessageInvariants: property test over random node states — a
// message never contains the destination or duplicates, carries at most
// C + table-capacity entries, and its first min(C, len) entries are the
// closest-to-destination of everything the sender knows.
func TestCreateMessageInvariants(t *testing.T) {
	f := func(seed int64, raw []uint64, qRaw uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		self := peer.Descriptor{ID: id.ID(rng.Uint64()), Addr: 0}
		cfg := DefaultConfig()
		cfg.CR = 0 // keep the union deterministic for the check
		n, err := NewNode(self, cfg, sampling.Fixed(nil))
		if err != nil {
			return false
		}
		pool := make([]peer.Descriptor, 0, len(raw))
		for i, v := range raw {
			pool = append(pool, peer.Descriptor{ID: id.ID(v), Addr: peer.Addr(int32(i))})
		}
		n.leaf.Update(pool)
		n.table.AddAll(pool)
		q := peer.Descriptor{ID: id.ID(qRaw), Addr: 9999}
		m := n.createMessage(q, true)

		if len(m.Entries) > cfg.C+cfg.TableCapacity() {
			return false
		}
		seen := make(map[id.ID]bool, len(m.Entries))
		for _, d := range m.Entries {
			if d.ID == q.ID || seen[d.ID] {
				return false
			}
			seen[d.ID] = true
		}
		// First entries are sorted by ring distance to q.
		limit := len(m.Entries)
		if limit > cfg.C {
			limit = cfg.C
		}
		for i := 1; i < limit; i++ {
			if id.CompareRing(q.ID, m.Entries[i-1].ID, m.Entries[i].ID) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMessageSelfAlwaysIncluded: the sender's own descriptor must be able
// to reach the peer (it is part of the union); with a small world it is
// always in the message.
func TestMessageSelfAlwaysIncluded(t *testing.T) {
	self := peer.Descriptor{ID: 500, Addr: 0}
	n, err := NewNode(self, testConfig(), sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	n.leaf.Update(descs(100, 200, 300))
	m := n.createMessage(peer.Descriptor{ID: 400, Addr: 4}, true)
	found := false
	for _, d := range m.Entries {
		if d.ID == self.ID {
			found = true
		}
	}
	if !found {
		t.Error("own descriptor missing from small-world message")
	}
}

// TestEvictionDetectsDeadPeer: with the failure-detector extension on, a
// node whose neighbour dies stops answering eventually evicts it from both
// structures; without the extension the dead entry lingers forever.
func TestEvictionDetectsDeadPeer(t *testing.T) {
	run := func(evict int) (*Node, id.ID) {
		net := simnet.New(simnet.Config{Seed: 3})
		d1 := peer.Descriptor{ID: 100, Addr: net.AddNode()}
		d2 := peer.Descriptor{ID: 200, Addr: net.AddNode()}
		cfg := testConfig()
		cfg.CR = 0
		cfg.EvictAfterMisses = evict
		n1, err := NewNode(d1, cfg, sampling.Fixed([]peer.Descriptor{d2}))
		if err != nil {
			t.Fatal(err)
		}
		n2, err := NewNode(d2, cfg, sampling.Fixed([]peer.Descriptor{d1}))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(d1.Addr, ProtoID, invariantChecked{n1, t}, cfg.Delta, 0); err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(d2.Addr, ProtoID, invariantChecked{n2, t}, cfg.Delta, 1); err != nil {
			t.Fatal(err)
		}
		net.Run(cfg.Delta * 5) // learn each other
		if !n1.Leaf().Contains(d2.ID) {
			t.Fatal("setup failed: n1 never learned n2")
		}
		net.Kill(d2.Addr)
		net.Run(cfg.Delta * 30)
		return n1, d2.ID
	}

	n1, dead := run(2)
	if n1.Leaf().Contains(dead) {
		t.Error("evicting node still holds the dead peer in its leaf set")
	}
	if n1.Table().Len() != 0 {
		t.Error("evicting node still holds the dead peer in its table")
	}
	n1, dead = run(0)
	if !n1.Leaf().Contains(dead) {
		t.Error("paper-faithful node (no detector) should keep the dead entry")
	}
}

func TestEvictionToleratesLoss(t *testing.T) {
	// With 20% drop and EvictAfterMisses=3, two live nodes must not
	// permanently evict each other (relearning through gossip).
	net := simnet.New(simnet.Config{Seed: 5, Drop: 0.2})
	d1 := peer.Descriptor{ID: 100, Addr: net.AddNode()}
	d2 := peer.Descriptor{ID: 200, Addr: net.AddNode()}
	cfg := testConfig()
	cfg.EvictAfterMisses = 3
	n1, err := NewNode(d1, cfg, sampling.Fixed([]peer.Descriptor{d2}))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(d2, cfg, sampling.Fixed([]peer.Descriptor{d1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(d1.Addr, ProtoID, n1, cfg.Delta, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(d2.Addr, ProtoID, n2, cfg.Delta, 1); err != nil {
		t.Fatal(err)
	}
	net.Run(cfg.Delta * 100)
	if !n1.Leaf().Contains(d2.ID) || !n2.Leaf().Contains(d1.ID) {
		t.Error("live peers evicted each other permanently under loss")
	}
}

func TestEvictionConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EvictAfterMisses = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative EvictAfterMisses accepted")
	}
}
