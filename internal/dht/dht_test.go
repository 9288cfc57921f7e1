package dht

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
)

// perfectCluster builds a DHT over perfectly bootstrapped routers.
func perfectCluster(t testing.TB, n, replicas int, seed int64) (*Cluster, []peer.Descriptor) {
	t.Helper()
	return perfectClusterAt(t, n, replicas, seed, func(i int) peer.Addr { return peer.Addr(i) })
}

// perfectClusterAt is perfectCluster with node i at address addr(i).
func perfectClusterAt(t testing.TB, n, replicas int, seed int64, addr func(int) peer.Addr) (*Cluster, []peer.Descriptor) {
	t.Helper()
	ids := id.Unique(n, seed)
	descs := make([]peer.Descriptor, n)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: addr(i)}
	}
	cfg := core.DefaultConfig()
	nodes := make([]*Node, n)
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(descs)
		nodes[i] = NewNode(pastry.New(d, ls, pt, cfg.B))
	}
	return NewCluster(nodes, replicas), descs
}

func TestPutGetRoundTrip(t *testing.T) {
	c, descs := perfectCluster(t, 200, 3, 1)
	rng := rand.New(rand.NewSource(2))
	type kv struct {
		key id.ID
		val []byte
	}
	var written []kv
	for i := 0; i < 100; i++ {
		key := id.ID(rng.Uint64())
		val := []byte{byte(i), byte(i >> 8), 0xAB}
		stored, err := c.Put(descs[rng.Intn(len(descs))].Addr, key, val)
		if err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if len(stored) != 3 {
			t.Fatalf("put %s stored at %d replicas, want 3", key, len(stored))
		}
		written = append(written, kv{key, val})
	}
	for _, w := range written {
		got, err := c.Get(descs[rng.Intn(len(descs))].Addr, w.key)
		if err != nil {
			t.Fatalf("get %s: %v", w.key, err)
		}
		if !bytes.Equal(got, w.val) {
			t.Fatalf("get %s = %v, want %v", w.key, got, w.val)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	c, descs := perfectCluster(t, 50, 3, 3)
	_, err := c.Get(descs[0].Addr, id.ID(12345))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestValueIsolation(t *testing.T) {
	// Mutating a stored or returned value must not affect the store.
	c, descs := perfectCluster(t, 50, 1, 4)
	val := []byte{1, 2, 3}
	if _, err := c.Put(descs[0].Addr, 99, val); err != nil {
		t.Fatal(err)
	}
	val[0] = 42 // caller mutates after Put
	got, err := c.Get(descs[1].Addr, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("store aliased the caller's buffer")
	}
	got[1] = 42 // caller mutates the returned value
	again, err := c.Get(descs[2].Addr, 99)
	if err != nil {
		t.Fatal(err)
	}
	if again[1] != 2 {
		t.Error("returned value aliased the store")
	}
}

// TestSurvivesRootFailure: after the key's root crashes, the key remains
// readable because responsibility migrates to a ring-neighbour replica.
func TestSurvivesRootFailure(t *testing.T) {
	c, descs := perfectCluster(t, 300, 3, 5)
	rng := rand.New(rand.NewSource(6))
	key := id.ID(rng.Uint64())
	val := []byte("survives")
	stored, err := c.Put(descs[0].Addr, key, val)
	if err != nil {
		t.Fatal(err)
	}
	root := stored[0]
	c.Remove(root)
	if c.Len() != 299 {
		t.Fatalf("len = %d after removal", c.Len())
	}
	// Read from many different starting points.
	for i := 0; i < 50; i++ {
		from := descs[rng.Intn(len(descs))].Addr
		if from == root {
			continue
		}
		got, err := c.Get(from, key)
		if err != nil {
			t.Fatalf("get after root failure from %d: %v", from, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("value corrupted after root failure")
		}
	}
}

// TestSurvivesReplicaSetFailures: kill the root and one more replica; with
// replication 3 the key must still be readable.
func TestSurvivesReplicaSetFailures(t *testing.T) {
	c, descs := perfectCluster(t, 300, 3, 7)
	key := id.ID(0xDEAD00000000BEEF)
	stored, err := c.Put(descs[1].Addr, key, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Remove(stored[0])
	c.Remove(stored[1])
	start := descs[2].Addr
	if start == stored[0] || start == stored[1] {
		start = descs[3].Addr
	}
	if _, err := c.Get(start, key); err != nil {
		t.Fatalf("get after two replica failures: %v", err)
	}
}

func TestReplicaSetDistinct(t *testing.T) {
	c, descs := perfectCluster(t, 100, 5, 8)
	stored, err := c.Put(descs[0].Addr, id.ID(777), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 5 {
		t.Fatalf("stored at %d, want 5", len(stored))
	}
	seen := make(map[peer.Addr]bool)
	for _, a := range stored {
		if seen[a] {
			t.Fatalf("duplicate replica %d", a)
		}
		seen[a] = true
	}
}

func TestTinyClusterReplication(t *testing.T) {
	// Fewer nodes than replicas: everything stores everywhere.
	c, descs := perfectCluster(t, 2, 5, 9)
	stored, err := c.Put(descs[0].Addr, id.ID(5), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 2 {
		t.Errorf("stored at %d, want all 2 nodes", len(stored))
	}
}

func TestRemoveUnknownIsNoop(t *testing.T) {
	c, _ := perfectCluster(t, 10, 3, 10)
	c.Remove(peer.Addr(999))
	if c.Len() != 10 {
		t.Error("removing unknown changed the cluster")
	}
}

// TestSparseAddresses: a cluster whose node i sits at address 3i+1 behaves
// exactly as the compact cluster over the same IDs — routing reads IDs,
// addresses only name nodes — through puts, gets, removals and joins, and
// its Reachable filter rejects the holes between addresses, peer.NoAddr
// and addresses past the table.
func TestSparseAddresses(t *testing.T) {
	const n = 128
	at := func(i int) peer.Addr { return peer.Addr(3*i + 1) }
	compact, _ := perfectCluster(t, n, 3, 81)
	sparse, _ := perfectClusterAt(t, n, 3, 81, at)
	toCompact := func(addrs []peer.Addr) []peer.Addr {
		out := make([]peer.Addr, len(addrs))
		for i, a := range addrs {
			out[i] = (a - 1) / 3
		}
		return out
	}
	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && errors.Is(a, ErrNotFound) == errors.Is(b, ErrNotFound)
	}
	rng := rand.New(rand.NewSource(82))
	keys := make([]id.ID, 100)
	put := func(k int) {
		from := rng.Intn(n)
		want, werr := compact.Put(peer.Addr(from), keys[k], []byte{byte(k)})
		got, gerr := sparse.Put(at(from), keys[k], []byte{byte(k)})
		if !sameErr(werr, gerr) || fmt.Sprint(toCompact(got)) != fmt.Sprint(want) {
			t.Fatalf("put %d from node %d: sparse stored %v (%v), compact %v (%v)", k, from, toCompact(got), gerr, want, werr)
		}
	}
	getAll := func(stage string) {
		for k, key := range keys {
			from := rng.Intn(n)
			want, werr := compact.Get(peer.Addr(from), key)
			got, gerr := sparse.Get(at(from), key)
			if !sameErr(werr, gerr) || !bytes.Equal(got, want) {
				t.Fatalf("%s: get %d from node %d: sparse %v (%v), compact %v (%v)", stage, k, from, got, gerr, want, werr)
			}
		}
	}
	for k := range keys {
		keys[k] = id.ID(rng.Uint64())
		put(k)
	}
	getAll("preload")
	removed := rng.Perm(n)[:24]
	for _, i := range removed {
		compact.Remove(peer.Addr(i))
		sparse.Remove(at(i))
	}
	getAll("after removals")
	for _, i := range removed[:12] {
		compact.Join(peer.Addr(i))
		sparse.Join(at(i))
	}
	for k := 0; k < len(keys); k += 2 {
		put(k)
	}
	getAll("after joins")
	if sparse.Len() != compact.Len() {
		t.Fatalf("live: sparse %d, compact %d", sparse.Len(), compact.Len())
	}
	if got, want := toCompact(sparse.LiveAddrs(nil)), compact.LiveAddrs(nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("LiveAddrs: sparse %v, compact %v", got, want)
	}

	from := at(removed[0])
	for _, to := range []peer.Addr{peer.NoAddr, 0, 2, 3, at(n), at(n) + 1000} {
		if sparse.reach(from, to) {
			t.Errorf("Reachable accepted %d, which names no node", to)
		}
	}
	if sparse.reach(from, at(removed[len(removed)-1])) {
		t.Error("Reachable accepted a removed node")
	}
	if !sparse.reach(from, at(removed[0])) {
		t.Error("Reachable rejected a rejoined node")
	}
}
