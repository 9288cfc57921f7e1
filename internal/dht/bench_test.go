package dht

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
	"repro/internal/testenv"
)

// buildRouters constructs perfectly bootstrapped routers (shared by the
// flat cluster and the legacy baseline).
func buildRouters(tb testing.TB, n int, seed int64) ([]*pastry.Router, []peer.Descriptor) {
	tb.Helper()
	ids := id.Unique(n, seed)
	descs := make([]peer.Descriptor, n)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	cfg := core.DefaultConfig()
	routers := make([]*pastry.Router, n)
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(descs)
		routers[i] = pastry.New(d, ls, pt, cfg.B)
	}
	return routers, descs
}

// benchKeys pre-generates the key and origin streams so benchmark loops
// measure DHT work, not RNG work.
func benchKeys(n, count int, seed int64) ([]id.ID, []peer.Addr) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]id.ID, count)
	origins := make([]peer.Addr, count)
	for i := range keys {
		keys[i] = id.ID(rng.Uint64())
		origins[i] = peer.Addr(rng.Intn(n))
	}
	return keys, origins
}

const benchValSize = 64

// BenchmarkDHTOps is the PR 8 serving-plane gate: ops/sec of the flat
// concurrent cluster vs the pre-PR synchronous baseline at n=4096, and
// the 0 allocs/op guarantee on the Get fast path. op=mixed is 90% get /
// 10% put over a pre-loaded working set.
func BenchmarkDHTOps(b *testing.B) {
	const n = 4096
	const working = 1024
	keys, origins := benchKeys(n, working, 31)
	val := make([]byte, benchValSize)
	for i := range val {
		val[i] = byte(i)
	}

	preload := func(put func(from peer.Addr, key id.ID) error) {
		for i := 0; i < working; i++ {
			if err := put(origins[i], keys[i]); err != nil {
				b.Fatalf("preload: %v", err)
			}
		}
	}

	b.Run("impl=legacy/op=get", func(b *testing.B) {
		routers, _ := buildRouters(b, n, 32)
		c := newLegacyCluster(routers, DefaultReplicas)
		preload(func(from peer.Addr, key id.ID) error {
			_, err := c.Put(from, key, val)
			return err
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % working
			if _, err := c.Get(origins[j], keys[j]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("impl=legacy/op=mixed", func(b *testing.B) {
		routers, _ := buildRouters(b, n, 32)
		c := newLegacyCluster(routers, DefaultReplicas)
		preload(func(from peer.Addr, key id.ID) error {
			_, err := c.Put(from, key, val)
			return err
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % working
			if i%10 == 9 {
				if _, err := c.Put(origins[j], keys[j], val); err != nil {
					b.Fatal(err)
				}
			} else if _, err := c.Get(origins[j], keys[j]); err != nil {
				b.Fatal(err)
			}
		}
	})

	newFlat := func(b *testing.B) *Cluster {
		routers, _ := buildRouters(b, n, 32)
		nodes := make([]*Node, len(routers))
		for i, r := range routers {
			nodes[i] = NewNode(r)
		}
		c := NewCluster(nodes, DefaultReplicas)
		preload(func(from peer.Addr, key id.ID) error {
			var st OpStats
			return c.PutStats(from, key, val, &st)
		})
		return c
	}

	b.Run("impl=flat/op=get", func(b *testing.B) {
		c := newFlat(b)
		scratch := make([]byte, 0, benchValSize)
		var st OpStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % working
			out, err := c.GetStats(scratch[:0], origins[j], keys[j], &st)
			if err != nil {
				b.Fatal(err)
			}
			scratch = out[:0]
		}
	})

	b.Run("impl=flat/op=mixed", func(b *testing.B) {
		c := newFlat(b)
		scratch := make([]byte, 0, benchValSize)
		var st OpStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % working
			if i%10 == 9 {
				if err := c.PutStats(origins[j], keys[j], val, &st); err != nil {
					b.Fatal(err)
				}
			} else {
				out, err := c.GetStats(scratch[:0], origins[j], keys[j], &st)
				if err != nil {
					b.Fatal(err)
				}
				scratch = out[:0]
			}
		}
	})

	b.Run("impl=flat-parallel/op=mixed", func(b *testing.B) {
		c := newFlat(b)
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			scratch := make([]byte, 0, benchValSize)
			var st OpStats
			for pb.Next() {
				i := int(ctr.Add(1))
				j := i % working
				if i%10 == 9 {
					if err := c.PutStats(origins[j], keys[j], val, &st); err != nil {
						b.Fatal(err)
					}
				} else {
					out, err := c.GetStats(scratch[:0], origins[j], keys[j], &st)
					if err != nil {
						b.Fatal(err)
					}
					scratch = out[:0]
				}
			}
		})
	})
}

// BenchmarkClusterRemove pins the O(changes) churn claim: the flat
// cluster's per-departure cost must not scale with cluster size, while
// the legacy baseline rebuilds a full mesh per departure.
func BenchmarkClusterRemove(b *testing.B) {
	for _, impl := range []string{"flat", "legacy"} {
		for _, n := range []int{2048, 8192} {
			b.Run(fmt.Sprintf("impl=%s/n=%d", impl, n), func(b *testing.B) {
				// Remove at most half the cluster per instance, rebuilding
				// (off the clock) when exhausted so every removal sees a
				// healthy population.
				budget := n / 2
				k := budget
				var fc *Cluster
				var lc *legacyCluster
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if k == budget {
						b.StopTimer()
						routers, _ := buildRouters(b, n, 33)
						if impl == "flat" {
							nodes := make([]*Node, len(routers))
							for i, r := range routers {
								nodes[i] = NewNode(r)
							}
							fc = NewCluster(nodes, DefaultReplicas)
						} else {
							lc = newLegacyCluster(routers, DefaultReplicas)
						}
						k = 0
						b.StartTimer()
					}
					if impl == "flat" {
						fc.Remove(peer.Addr(k))
					} else {
						lc.Remove(peer.Addr(k))
					}
					k++
				}
			})
		}
	}
}

// TestGetStatsAllocs is the serving-plane alloc guard: steady-state
// GetStats with reused scratch, and steady-state overwriting PutStats,
// must not allocate.
func TestGetStatsAllocs(t *testing.T) {
	const n = 512
	c, _ := perfectCluster(t, n, 3, 34)
	keys, origins := benchKeys(n, 128, 35)
	checkOpsAllocFree(t, c, keys, origins)
}

// TestGetStatsFilteredAllocs is the same guard on the filtered path, where
// every routing candidate goes through the cluster's Reachable filter:
// after a few departures, and with a partition cut installed.
func TestGetStatsFilteredAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("alloc counts do not hold under -race")
	}
	const n = 512
	keys, origins := benchKeys(n, 128, 35)
	t.Run("removed", func(t *testing.T) {
		c, _ := perfectCluster(t, n, 3, 34)
		origin := make([]bool, n)
		for _, o := range origins {
			origin[o] = true
		}
		for a, removed := 0, 0; removed < 8; a += 61 {
			if !origin[a%n] {
				c.Remove(peer.Addr(a % n))
				removed++
			}
		}
		checkOpsAllocFree(t, c, keys, origins)
	})
	t.Run("partition", func(t *testing.T) {
		c, _ := perfectCluster(t, n, 3, 34)
		c.SetPartition(func(a, b peer.Addr) bool { return (a < n/2) != (b < n/2) })
		checkOpsAllocFree(t, c, keys, origins)
	})
}

// checkOpsAllocFree preloads keys[i] from origins[i], then checks that
// steady-state GetStats and overwriting PutStats allocate nothing.
func checkOpsAllocFree(t *testing.T, c *Cluster, keys []id.ID, origins []peer.Addr) {
	t.Helper()
	val := make([]byte, benchValSize)
	var st OpStats
	for i := range keys {
		if err := c.PutStats(origins[i], keys[i], val, &st); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	scratch := make([]byte, 0, benchValSize)
	i := 0
	got := testing.AllocsPerRun(500, func() {
		j := i % len(keys)
		i++
		out, err := c.GetStats(scratch[:0], origins[j], keys[j], &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != benchValSize {
			t.Fatalf("short read: %d", len(out))
		}
		scratch = out[:0]
	})
	if got != 0 {
		t.Errorf("GetStats fast path allocates %.1f allocs/op, want 0", got)
	}
	i = 0
	got = testing.AllocsPerRun(500, func() {
		j := i % len(keys)
		i++
		if err := c.PutStats(origins[j], keys[j], val, &st); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("steady-state PutStats allocates %.1f allocs/op, want 0", got)
	}
}
