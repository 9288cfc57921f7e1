package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/wire"
)

// The direct metrics are timed loops over one public function each, the
// micro view of the layers the traced run can only see from outside. They
// take the same inputs in every run of every workload, so a layer's
// number can be read next to whichever end-to-end metric it should move.

// timeOp calls op in batches until budget is spent and returns the cost of
// one call in each batch, in nanoseconds.
func timeOp(budget time.Duration, batch int, op func()) []float64 {
	for i := 0; i < batch; i++ { // warm caches and pools
		op()
	}
	var samples []float64
	for start := time.Now(); time.Since(start) < budget || len(samples) == 0; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return samples
}

// allocsPerOp returns the heap allocations one call of op makes, averaged
// over n calls.
func allocsPerOp(n int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func randomDescs(rng *rand.Rand, n int) []peer.Descriptor {
	ds := make([]peer.Descriptor, n)
	for i := range ds {
		ds[i] = peer.Descriptor{ID: id.ID(rng.Uint64()), Addr: peer.Addr(i)}
	}
	return ds
}

// relayMessage builds the message the relay workloads forward: entries
// descriptors from pool.
func relayMessage(self peer.Descriptor, pool []peer.Descriptor, entries int) *core.Message {
	m := core.NewMessage()
	m.Sender = self
	m.Entries = append(m.Entries, pool[:entries]...)
	return m
}

// Message sizes of the relay and codec measurements: the smallest frame,
// and today's mean bootstrap message.
const (
	smallEntries = 1
	fullEntries  = 160
)

// perfectCluster builds a DHT over n nodes with perfect leaf sets and
// prefix tables — the bootstrap protocol's fixed point, without running it.
func perfectCluster(n int, seed int64) (*dht.Cluster, []*pastry.Router, []peer.Descriptor) {
	cfg := core.DefaultConfig()
	ids := id.Unique(n, seed)
	descs := make([]peer.Descriptor, n)
	for i, v := range ids {
		descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	routers := make([]*pastry.Router, n)
	nodes := make([]*dht.Node, n)
	for i, d := range descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(descs)
		routers[i] = pastry.New(d, ls, pt, cfg.B)
		nodes[i] = dht.NewNode(routers[i])
	}
	return dht.NewCluster(nodes, 3), routers, descs
}

// runDirect measures every direct metric. Inputs derive from the run's
// seed; sizes are fixed.
func runDirect(rc *runCtx) error {
	res, budget := rc.res, rc.sz.directBudget
	rng := rand.New(rand.NewSource(rc.seed + 0xd1ec7))

	// peer: the 200-descriptor union createMessage sorts, and its set.
	union := randomDescs(rng, 200)
	pivot := id.ID(rng.Uint64())
	work := make([]peer.Descriptor, len(union))
	res.set("peer.sort_ring_ns", timeOp(budget, 16, func() {
		copy(work, union)
		peer.SortByRingDistance(work, pivot)
	})...)
	set := peer.NewSet(len(union))
	perAdd := timeOp(budget, 16, func() {
		set.Reset()
		set.AddAll(union)
	})
	for i := range perAdd {
		perAdd[i] /= float64(len(union))
	}
	res.set("peer.set_add_ns", perAdd...)
	arena := peer.NewDescriptorArena()
	res.set("peer.arena_get_put_ns", timeOp(budget, 1024, func() {
		arena.Put(arena.Get(core.DefaultC))
	})...)

	// flat: 2^16 resident entries, random hits and overwrites.
	const flatN = 1 << 16
	table := flat.NewTable[int32](flatN)
	keys := make([]id.ID, flatN)
	for i := range keys {
		keys[i] = id.ID(rng.Uint64())
		table.Put(keys[i], int32(i))
	}
	var sink int32
	i := 0
	res.set("flat.get_ns", timeOp(budget, 4096, func() {
		v, _ := table.Get(keys[i&(flatN-1)])
		sink += v
		i += 7919
	})...)
	res.set("flat.put_ns", timeOp(budget, 4096, func() {
		table.Put(keys[i&(flatN-1)], int32(i))
		i += 7919
	})...)

	// sched: the hold model — pop the earliest, push it back a random
	// distance ahead — with 2^16 resident spread over the window of
	// simnet's geometry (256 one-tick buckets).
	const schedHorizon = 256
	q := sched.New[int32](0, schedHorizon)
	for j := 0; j < flatN; j++ {
		// Ascending from 0: the queue anchors its window at the first
		// push and treats anything earlier as late.
		q.Push(int64(j)*schedHorizon/flatN, int32(j))
	}
	res.set("sched.push_pop_ns", timeOp(budget, 4096, func() {
		at, _ := q.PeekTime()
		v, _ := q.Pop()
		q.Push(at+1+rng.Int63n(schedHorizon), v)
	})...)

	res.set("bench.relay_handle_ns", relayHandleNS(rc)...)

	// wire: encode and decode at both relay message sizes.
	pool := randomDescs(rng, fullEntries)
	env := wire.Envelope{From: 1, To: 2, Pid: proto.BootstrapID}
	var frame []byte
	for _, c := range []struct {
		suffix  string
		entries int
	}{{"small", smallEntries}, {"full", fullEntries}} {
		msg := relayMessage(pool[0], pool, c.entries)
		res.set("wire.encode_ns."+c.suffix, timeOp(budget, 256, func() {
			frame = wire.AppendFrame(frame[:0], env, msg)
		})...)
		var derr error
		decode := func() {
			_, m, err := wire.Decode(frame[4:]) // skip the length prefix
			if err != nil {
				derr = err
				return
			}
			m.Recycle()
		}
		res.set("wire.decode_ns."+c.suffix, timeOp(budget, 256, decode)...)
		if derr != nil {
			return derr
		}
		if c.entries == fullEntries {
			res.set("wire.frame_bytes.full", float64(len(frame)))
			res.set("wire.allocs_per_op", allocsPerOp(1000, func() {
				frame = wire.AppendFrame(frame[:0], env, msg)
				decode()
			}))
		}
	}

	// dht and pastry: routed operations on perfect tables.
	n := min(1024, rc.sz.serveN)
	cluster, routers, descs := perfectCluster(n, rc.seed+0xd47)
	dkeys := make([]id.ID, 4096)
	val := make([]byte, 64)
	var st dht.OpStats
	for j := range dkeys {
		dkeys[j] = id.ID(rng.Uint64())
		if err := cluster.PutStats(descs[j%n].Addr, dkeys[j], val, &st); err != nil {
			return err
		}
	}
	scratch := make([]byte, 0, 128)
	var operr error
	get := func() {
		out, err := cluster.GetStats(scratch[:0], descs[i%n].Addr, dkeys[i%len(dkeys)], &st)
		if err != nil {
			operr = err
		}
		scratch = out[:0]
		i += 7919
	}
	res.set("dht.get_ns", timeOp(budget, 1024, get)...)
	res.set("dht.put_ns", timeOp(budget, 1024, func() {
		if err := cluster.PutStats(descs[i%n].Addr, dkeys[i%len(dkeys)], val, &st); err != nil {
			operr = err
		}
		i += 7919
	})...)
	// The tail needs single operations, so each is timed on its own; the
	// clock reads are part of the number.
	single := make([]float64, 20000)
	for j := range single {
		t0 := time.Now()
		get()
		single[j] = float64(time.Since(t0).Nanoseconds())
	}
	res.set("dht.get_p99_ns", percentile(single, 0.99))
	res.set("dht.allocs_per_op", allocsPerOp(1000, get))
	mesh := pastry.NewMesh(routers, 0)
	res.set("pastry.route_ns", timeOp(budget, 256, func() {
		if _, err := mesh.Route(descs[i%n].Addr, dkeys[i%len(dkeys)]); err != nil {
			operr = err
		}
		i += 7919
	})...)
	_ = sink
	return operr
}
