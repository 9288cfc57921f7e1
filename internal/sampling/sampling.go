// Package sampling defines the peer sampling service abstraction — the
// bottom layer of the paper's architecture (Section 3) — together with an
// oracle implementation backed by global knowledge.
//
// The bootstrapping service only ever consumes this interface, so it can run
// over the gossip-based NEWSCAST implementation (package newscast) or, for
// isolating layers in experiments and tests, over the oracle.
//
// The oracle is structured for the concurrent (livenet) engine: the
// membership lives in a snapshot behind an atomic pointer, which Remove
// replaces and Add extends in place past every reader's length, and each
// concurrent consumer draws through its own Stream — a private,
// deterministically seeded RNG — so the per-tick sample path
// never takes a lock and never contends. The Oracle's own Sample/AppendSample methods are the shared
// default stream, serialised by a mutex for backwards compatibility; the
// deterministic simulator keeps using them so seeded traces are unchanged.
package sampling

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/peer"
)

// Service provides random peer addresses from the set of participating
// nodes. Implementations must be safe for use from the node that owns them;
// the Oracle is additionally safe for concurrent use.
type Service interface {
	// Sample returns up to n distinct random peer descriptors. Fewer than
	// n are returned only when the service does not know n peers.
	Sample(n int) []peer.Descriptor
	AppendSampler
}

// AppendSampler is the allocation-free half of Service: AppendSample
// appends a sample to a caller-provided buffer, drawing exactly the same
// sequence as Sample. The bootstrap protocol's per-tick message
// construction draws through it. It stays a name of its own because
// bench's traced sampler names it beside Service.
type AppendSampler interface {
	AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor
}

// Oracle is a Service drawing uniform samples from a globally known
// membership list. It models a perfectly converged sampling layer, which is
// the paper's operating assumption for the bootstrap experiments ("we are
// given a network where the sampling service is already functional").
//
// The membership is a snapshot behind an atomic pointer: readers
// (samplers) load it lock-free, writers (Add/Remove/RemoveAll) change it
// under a writer-only mutex. Sample/AppendSample on the Oracle
// itself draw from a shared default RNG stream guarded by a mutex — safe
// for concurrent use and sequence-identical to the pre-snapshot
// implementation for a given seed. Concurrent hot paths should draw
// through per-caller Stream handles instead, which never contend.
type Oracle struct {
	seed int64
	snap atomic.Pointer[membership]

	// wmu serialises writers only; pos locates members for Remove and
	// deduplicates Add, and is touched only under wmu.
	wmu sync.Mutex
	pos flat.Table[int]

	// def is the shared default stream behind Sample/AppendSample,
	// serialised by defMu so the Oracle itself stays safe for concurrent
	// use (harness code, tests, the single-threaded simulator).
	defMu sync.Mutex
	def   Stream
}

var _ Service = (*Oracle)(nil)

// NewOracle returns an Oracle over the given membership, seeded
// deterministically. The default stream consumes its RNG exactly like the
// historical mutexed implementation, so seeded simulator traces are
// byte-identical.
func NewOracle(members []peer.Descriptor, seed int64) *Oracle {
	o := &Oracle{seed: seed}
	o.pos.Reserve(len(members))
	snap := make([]peer.Descriptor, len(members), withHeadroom(len(members)))
	copy(snap, members)
	for i, m := range snap {
		o.pos.Put(m.ID, i)
	}
	o.publish(snap)
	o.def = Stream{o: o, rng: rand.New(rand.NewSource(seed))}
	return o
}

// membership is one published member array; readers see buf[:n]. Add
// writes buf[n] and only then raises n, so it writes past the length
// every reader loaded. Remove and RemoveAll publish a fresh membership, so
// a reader holding an older one keeps a frozen view.
type membership struct {
	buf []peer.Descriptor // its whole capacity
	n   atomic.Int64
}

// withHeadroom is the capacity a fresh member array of n gets, so that a
// churn wave's joins after its removals append in place.
func withHeadroom(n int) int { return n + n/8 + 8 }

// publish makes ds, within its capacity, the current membership.
func (o *Oracle) publish(ds []peer.Descriptor) {
	m := &membership{buf: ds[:cap(ds)]}
	m.n.Store(int64(len(ds)))
	o.snap.Store(m)
}

// members returns the current membership snapshot (never nil to callers;
// the slice must not be mutated).
func (o *Oracle) members() []peer.Descriptor {
	m := o.snap.Load()
	n := m.n.Load()
	return m.buf[:n:n]
}

// Sample returns up to n distinct uniformly random members, drawn from the
// shared default stream.
func (o *Oracle) Sample(n int) []peer.Descriptor {
	return o.AppendSample(nil, n)
}

// AppendSample appends up to n distinct uniformly random members to dst,
// drawn from the shared default stream. For n up to 64 it allocates
// nothing beyond what dst needs to grow. It consumes the stream's RNG
// exactly like Sample, so the two are interchangeable without disturbing a
// seeded run.
func (o *Oracle) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	o.defMu.Lock()
	defer o.defMu.Unlock()
	return o.def.AppendSample(dst, n)
}

// Stream returns a sampling handle with its own deterministic RNG stream
// (an 8-byte id.SplitMix64), reading the shared membership
// snapshot lock-free. Streams
// with the same (oracle seed, key) draw identical sequences over identical
// membership histories — seed-stable — and distinct keys draw independent
// streams. A Stream is for a single caller: it must not be used from more
// than one goroutine at a time (each concurrent consumer takes its own),
// but any number of Streams may run concurrently with each other and with
// Add/Remove without contending.
func (o *Oracle) Stream(key int64) *Stream {
	// SplitMix64-style key whitening so adjacent keys land on distant
	// seeds; id.NewRand hashes the seed again before it becomes state.
	mixed := int64(uint64(o.seed) ^ (0x9e3779b97f4a7c15 * (uint64(key) + 1)))
	return &Stream{o: o, rng: id.NewRand(mixed)}
}

// Stream is a single-caller view of an Oracle: a private RNG stream over
// the shared lock-free membership snapshot. It implements
// Service; the sample path takes no lock.
type Stream struct {
	o   *Oracle
	rng *rand.Rand
}

var _ Service = (*Stream)(nil)

// Sample returns up to n distinct uniformly random members.
func (s *Stream) Sample(n int) []peer.Descriptor {
	return s.AppendSample(nil, n)
}

// AppendSample appends up to n distinct uniformly random members to dst.
// For n up to 64 it allocates nothing beyond what dst needs to grow. It
// consumes the stream's RNG exactly like Sample, so the two are
// interchangeable without disturbing a seeded sequence.
func (s *Stream) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	members := s.o.members()
	if n > len(members) {
		n = len(members)
	}
	if n <= 0 {
		return dst
	}
	// Rejection sampling with a linear duplicate scan. For the small n
	// used by the protocols (cr <= 100) relative to membership size,
	// this is cheaper than a partial Fisher-Yates. The drawn indices live
	// on the stack for any n up to 64 (the default cr is 30), so a Stream
	// keeps no scratch. stack must not flow into anything that outlives
	// the call, or it escapes to the heap: `go build -gcflags=-m` would
	// read "moved to heap: stack".
	var stack [64]int
	drawn := stack[:0]
	if n > len(stack) {
		drawn = make([]int, 0, n)
	}
	for len(drawn) < n {
		i := s.rng.Intn(len(members))
		dup := false
		for _, j := range drawn {
			if i == j {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		drawn = append(drawn, i)
		dst = append(dst, members[i])
	}
	return dst
}

// Add inserts a member (idempotent by ID). It appends in place when the
// current array has room, and otherwise publishes a fresh array with
// headroom. Used by churn models.
func (o *Oracle) Add(d peer.Descriptor) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	if o.pos.Contains(d.ID) {
		return
	}
	cur := o.snap.Load()
	n := int(cur.n.Load())
	o.pos.Put(d.ID, n)
	if n < len(cur.buf) {
		cur.buf[n] = d
		cur.n.Store(int64(n + 1))
		return
	}
	next := make([]peer.Descriptor, n+1, withHeadroom(n+1))
	copy(next, cur.buf[:n])
	next[n] = d
	o.publish(next)
}

// Remove deletes a member by ID, if present; see RemoveAll.
func (o *Oracle) Remove(nodeID id.ID) {
	o.RemoveAll([]id.ID{nodeID})
}

// RemoveAll deletes the members with the given IDs, skipping absent ones,
// and publishes one fresh snapshot if any was present. Each removal is the
// historical swap-delete (the last member moves into the hole), applied in
// the order given, so membership order — and with it default-stream
// sequences under a fixed seed — equals that of one Remove per ID. Used by
// churn models.
func (o *Oracle) RemoveAll(ids []id.ID) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	var next []peer.Descriptor
	for _, nodeID := range ids {
		i, ok := o.pos.Get(nodeID)
		if !ok {
			continue
		}
		if next == nil {
			cur := o.members()
			next = make([]peer.Descriptor, len(cur), withHeadroom(len(cur)))
			copy(next, cur)
		}
		last := len(next) - 1
		if i < last {
			next[i] = next[last]
			o.pos.Put(next[i].ID, i)
		}
		next = next[:last]
		o.pos.Delete(nodeID)
	}
	if next != nil {
		o.publish(next)
	}
}

// Len returns the current membership size, lock-free.
func (o *Oracle) Len() int {
	return len(o.members())
}

// Fixed is a Service returning a static list, useful in unit tests.
type Fixed []peer.Descriptor

var _ Service = Fixed(nil)

// Sample returns the first n descriptors of the fixed list.
func (f Fixed) Sample(n int) []peer.Descriptor {
	return f.AppendSample(nil, n)
}

// AppendSample appends the first n descriptors of the fixed list to dst.
func (f Fixed) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	return append(dst, f[:min(n, len(f))]...)
}
