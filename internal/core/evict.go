package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/peer"
)

// The eviction extension — a failure detector, tombstones and death
// certificates — is this repository's addition to the paper, whose node
// keeps a departed peer's descriptor forever. It is on only when
// Config.EvictAfterMisses > 0: NewNode then gives the node an evictor, and
// Tick, Handle and createMessage each make one call into this file.
// Deleting the extension is this file plus Message.Dead and the wire
// format's certificate field.

// tombstoneTTL is how many ticks an evicted peer stays blacklisted. A
// falsely evicted live peer (consecutive message losses) is relearned
// through gossip once its tombstone expires.
const tombstoneTTL = 20

// sweepEvery makes every sweepEvery-th request (in expectation) probe a
// uniformly random known entry instead of a close ring neighbour, so dead
// entries outside the gossip working set are eventually detected.
const sweepEvery = 4

// maxCertificates caps the death certificates attached per message.
const maxCertificates = 32

// evictor is a node's failure-detector state: the peer whose answer is
// outstanding, whether it answered, consecutive unanswered requests per
// peer, local tombstones for evicted peers (expiry tick), and the tick
// counter. The per-peer tables are open-addressed (internal/flat) rather
// than built-in maps: half the memory at 2^18+ nodes, and their iteration
// order — which reaches the wire via death certificates — is
// deterministic.
type evictor struct {
	pending  peer.Descriptor
	answered bool
	misses   flat.Table[int]
	tombs    flat.Table[int64]
	ticks    int64
}

// nextProbe is Tick's peer choice with the detector on: it charges the
// previous request's missing answer, picks a sweep target one tick in
// sweepEvery (in expectation) and selectPeer's choice otherwise, and
// awaits the chosen peer's answer.
func (n *Node) nextProbe(rng *rand.Rand) peer.Descriptor {
	e := n.evict
	e.ticks++
	n.noteMissedAnswer()
	q := peer.None
	if rng.Intn(sweepEvery) == 0 {
		q = n.sweepTarget(rng)
	}
	if q.Nil() {
		q = n.selectPeer(rng)
	}
	e.pending, e.answered = q, false
	return q
}

// sweepTarget picks a uniformly random entry from the node's structures —
// the probe that lets the failure detector reach entries the ring gossip
// never contacts (far leaf entries and prefix-table slots).
func (n *Node) sweepTarget(rng *rand.Rand) peer.Descriptor {
	total := n.leaf.Len() + n.table.Len()
	if total == 0 {
		return peer.None
	}
	// Index successors, then predecessors, then the table row by row,
	// without materialising the concatenation.
	succ, pred := n.leaf.Successors(), n.leaf.Predecessors()
	switch i := rng.Intn(total); {
	case i < len(succ):
		return succ[i]
	case i < len(succ)+len(pred):
		return pred[i-len(succ)]
	default:
		return n.table.at(i - len(succ) - len(pred))
	}
}

// noteMissedAnswer charges the previously contacted peer when its answer
// never arrived, evicting it after EvictAfterMisses consecutive misses.
func (n *Node) noteMissedAnswer() {
	e := n.evict
	if e.pending.Nil() || e.answered {
		return
	}
	m, _ := e.misses.Get(e.pending.ID)
	m++
	if m >= n.cfg.EvictAfterMisses {
		n.leaf.Remove(e.pending.ID)
		n.table.Remove(e.pending.ID)
		e.misses.Delete(e.pending.ID)
		// Blacklist so gossip cannot immediately reintroduce the
		// entry; the tombstone expires in case this was a false
		// positive caused by message loss.
		e.tombs.Put(e.pending.ID, e.ticks+tombstoneTTL)
	} else {
		e.misses.Put(e.pending.ID, m)
	}
	e.pending = peer.None
}

// screen is Handle's eviction step: any message proves its sender alive
// (and answers the pending request if the sender is the one awaited), its
// death certificates are adopted, and the entries it returns are m's less
// the tombstoned ones.
func (n *Node) screen(m *Message) []peer.Descriptor {
	e := n.evict
	f := n.newTombFilter()
	e.misses.Delete(m.Sender.ID)
	if f.mayHold(m.Sender.ID) {
		e.tombs.Delete(m.Sender.ID)
	}
	if m.Sender.ID == e.pending.ID {
		e.answered = true
	}
	n.adoptCertificates(m.Sender, m.Dead, &f)
	return n.filterTombstoned(m.Entries, &f)
}

// expiredPool recycles appendCertificates' list of expired tombstones
// across calls and nodes, so the list is no node's state.
var expiredPool = sync.Pool{New: func() any { return new([]id.ID) }}

// appendCertificates appends the unexpired tombstoned IDs to dst, capped
// for transport, in the tomb table's (deterministic) iteration order.
// Expired tombstones found on the way are collected and deleted after the
// scan: deletion backshifts table entries, so deleting mid-iteration would
// derail the cursor.
func (n *Node) appendCertificates(dst []id.ID) []id.ID {
	e := n.evict
	if e.tombs.Len() == 0 {
		return dst
	}
	buf := expiredPool.Get().(*[]id.ID)
	expired := (*buf)[:0]
	added := 0
	e.tombs.Iter(func(dead id.ID, expiry int64) bool {
		if e.ticks >= expiry {
			expired = append(expired, dead)
			return true
		}
		dst = append(dst, dead)
		added++
		return added < maxCertificates
	})
	for _, dead := range expired {
		e.tombs.Delete(dead)
	}
	*buf = expired
	expiredPool.Put(buf)
	return dst
}

// adoptCertificates merges a peer's death certificates: each new one
// tombstones and removes the named entry locally, and joins f.
func (n *Node) adoptCertificates(sender peer.Descriptor, dead []id.ID, f *tombFilter) {
	e := n.evict
	for _, d := range dead {
		if d == n.self.ID || d == sender.ID {
			continue
		}
		if f.mayHold(d) && e.tombs.Contains(d) {
			continue
		}
		e.tombs.Put(d, e.ticks+tombstoneTTL)
		f.add(d)
		n.leaf.Remove(d)
		n.table.Remove(d)
	}
}

// tombFilter is a one-hash Bloom filter over the tomb table's IDs, built
// once per handled message: a clear bit proves an ID untombstoned, so the
// table is probed only for the few IDs that may be in it. Most probes of a
// message's entries would miss, and a miss is the dearest probe under
// linear probing. Deleting a tombstone leaves its bit set, which costs at
// most a probe.
type tombFilter [16]uint64

// newTombFilter returns the filter of n's current tombstones.
func (n *Node) newTombFilter() (f tombFilter) {
	if tombs := &n.evict.tombs; tombs.Len() > 0 {
		tombs.Iter(func(dead id.ID, _ int64) bool {
			f.add(dead)
			return true
		})
	}
	return f
}

// tombBit hashes an ID to one of the filter's 1024 bits (Fibonacci
// hashing: the top ten bits of the product, so small sequential IDs
// spread too).
func tombBit(i id.ID) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 >> 54 }

func (f *tombFilter) add(i id.ID) {
	b := tombBit(i)
	f[b>>6] |= 1 << (b & 63)
}

// mayHold reports false only for an ID that was never added.
func (f *tombFilter) mayHold(i id.ID) bool {
	b := tombBit(i)
	return f[b>>6]&(1<<(b&63)) != 0
}

// filterTombstoned drops descriptors currently blacklisted, expiring
// tombstones lazily; f must cover the tomb table. It compacts the received
// slice in place: the receiver owns it (see Message).
func (n *Node) filterTombstoned(ds []peer.Descriptor, f *tombFilter) []peer.Descriptor {
	e := n.evict
	if e.tombs.Len() == 0 {
		return ds
	}
	out := ds[:0]
	for _, d := range ds {
		if !f.mayHold(d.ID) {
			out = append(out, d)
			continue
		}
		expiry, dead := e.tombs.Get(d.ID)
		if dead && e.ticks >= expiry {
			e.tombs.Delete(d.ID)
			dead = false
		}
		if !dead {
			out = append(out, d)
		}
	}
	return out
}

// checkTombstones is CheckInvariants' eviction clause: no entry of the
// leaf set or the prefix table is currently tombstoned.
func (n *Node) checkTombstones() error {
	e := n.evict
	for _, ds := range [][]peer.Descriptor{n.leaf.succ, n.leaf.pred, n.table.Entries()} {
		for _, d := range ds {
			if expiry, ok := e.tombs.Get(d.ID); ok && e.ticks < expiry {
				return fmt.Errorf("holds %s, tombstoned until tick %d (now %d)", d, expiry, e.ticks)
			}
		}
	}
	return nil
}
