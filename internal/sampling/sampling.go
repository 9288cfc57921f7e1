// Package sampling defines the peer sampling service abstraction — the
// bottom layer of the paper's architecture (Section 3) — together with an
// oracle implementation backed by global knowledge.
//
// The bootstrapping service only ever consumes this interface, so it can run
// over the gossip-based NEWSCAST implementation (package newscast) or, for
// isolating layers in experiments and tests, over the oracle.
//
// The oracle is structured for the concurrent (livenet) engine: the
// membership lives in an immutable snapshot behind an atomic pointer,
// mutated copy-on-write by Add/Remove, and each concurrent consumer draws
// through its own Stream — a private, deterministically seeded RNG plus
// scratch — so the per-tick sample path never takes a lock and never
// contends. The Oracle's own Sample/AppendSample methods are the shared
// default stream, serialised by a mutex for backwards compatibility; the
// deterministic simulator keeps using them so seeded traces are unchanged.
package sampling

import (
	"math/rand"
	"sync"
	"sync/atomic"

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
// The membership is an immutable snapshot behind an atomic pointer:
// readers (samplers) load it lock-free, writers (Add/Remove) publish a
// fresh copy under a writer-only mutex. Sample/AppendSample on the Oracle
// itself draw from a shared default RNG stream guarded by a mutex — safe
// for concurrent use and sequence-identical to the pre-snapshot
// implementation for a given seed. Concurrent hot paths should draw
// through per-caller Stream handles instead, which never contend.
type Oracle struct {
	seed int64
	snap atomic.Pointer[[]peer.Descriptor]

	// wmu serialises writers only; pos locates members for Remove and
	// deduplicates Add, and is touched only under wmu.
	wmu sync.Mutex
	pos map[id.ID]int

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
	o := &Oracle{
		seed: seed,
		pos:  make(map[id.ID]int, len(members)),
	}
	snap := make([]peer.Descriptor, len(members))
	copy(snap, members)
	for i, m := range snap {
		o.pos[m.ID] = i
	}
	o.snap.Store(&snap)
	o.def = Stream{o: o, rng: rand.New(rand.NewSource(seed))}
	return o
}

// members returns the current membership snapshot (never nil to callers;
// the slice must not be mutated).
func (o *Oracle) members() []peer.Descriptor {
	return *o.snap.Load()
}

// Sample returns up to n distinct uniformly random members, drawn from the
// shared default stream.
func (o *Oracle) Sample(n int) []peer.Descriptor {
	return o.AppendSample(nil, n)
}

// AppendSample appends up to n distinct uniformly random members to dst,
// drawn from the shared default stream. It allocates nothing beyond what
// dst needs to grow, and consumes the stream's RNG exactly like Sample, so
// the two are interchangeable without disturbing a seeded run.
func (o *Oracle) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	o.defMu.Lock()
	defer o.defMu.Unlock()
	return o.def.AppendSample(dst, n)
}

// Stream returns a sampling handle with its own deterministic RNG stream
// (an 8-byte id.SplitMix64) and scratch, reading the shared membership
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

// Stream is a single-caller view of an Oracle: a private RNG stream plus
// scratch over the shared lock-free membership snapshot. It implements
// Service; the sample path takes no lock.
type Stream struct {
	o       *Oracle
	rng     *rand.Rand
	scratch []int // drawn member indices of the in-progress sample
}

var _ Service = (*Stream)(nil)

// Sample returns up to n distinct uniformly random members.
func (s *Stream) Sample(n int) []peer.Descriptor {
	return s.AppendSample(nil, n)
}

// AppendSample appends up to n distinct uniformly random members to dst.
// It allocates nothing beyond what dst needs to grow, and consumes the
// stream's RNG exactly like Sample, so the two are interchangeable without
// disturbing a seeded sequence.
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
	// this is cheaper than a partial Fisher-Yates and allocation-free.
	drawn := s.scratch[:0]
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
	s.scratch = drawn
	return dst
}

// Add inserts a member (idempotent by ID), publishing a fresh snapshot.
// Used by churn models.
func (o *Oracle) Add(d peer.Descriptor) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	if _, dup := o.pos[d.ID]; dup {
		return
	}
	cur := o.members()
	next := make([]peer.Descriptor, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = d
	o.pos[d.ID] = len(cur)
	o.snap.Store(&next)
}

// Remove deletes a member by ID, if present, publishing a fresh snapshot.
// It preserves the historical swap-delete ordering (the last member moves
// into the hole), so default-stream sequences under a fixed seed are
// unchanged. Used by churn models.
func (o *Oracle) Remove(nodeID id.ID) {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	i, ok := o.pos[nodeID]
	if !ok {
		return
	}
	cur := o.members()
	last := len(cur) - 1
	next := make([]peer.Descriptor, last)
	copy(next, cur[:last])
	if i < last {
		next[i] = cur[last]
		o.pos[next[i].ID] = i
	}
	delete(o.pos, nodeID)
	o.snap.Store(&next)
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
