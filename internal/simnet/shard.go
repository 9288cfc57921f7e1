// Sharded execution: conservative parallel discrete-event simulation, one
// step per instant.
//
// With Config.Shards > 1 the nodes are partitioned across P execution
// shards, each owning a calendar wheel (internal/sched) holding exactly the
// events addressed to its nodes. Run moves the clock to the earliest pending
// instant t, and step lets every shard dispatch its own events due at t
// concurrently. Every event a dispatch generates lands strictly after t — a
// message one instant on (the delivery rule), a tick one period on — so
// shards never need to see each other's output mid-step: generated events
// buffer per shard and cross the shard boundary when the step ends.
//
// Determinism is the sequential engine's own contract, replicated. The
// sequential engine dispatches an instant's events in insertion-seq order
// and stamps children with consecutive sequence numbers in push order.
// Inside a step each shard dispatches its slice of that order in that order
// and appends generated events in push order, tagged with the parent's seq,
// so each shard's buffer is already sorted by (parent seq, push index). The
// merge combines the P buffers on exactly that key — which reconstructs the
// sequential push order — and assigns the dense global sequence numbers in
// merge order. The wheels pop in (time, push order), so the next
// step again dispatches the sequential order: by induction the whole run is
// event-for-event identical to the sequential engine, for any shard count,
// provided dispatching itself never consults global mutable state. The
// engine guarantees that for its own state (per-shard stats, per-node RNGs,
// per-node wire streams); workloads whose protocols share mutable state
// across nodes forfeit cross-count byte-identity but stay deterministic per
// shard count only if that state is itself deterministic — the experiment
// harness swaps its one such object (the oracle's shared sample stream) for
// per-node streams when sharding.
//
// The event-handling body is not replicated per engine: dispatchDue,
// dispatch, Send and push (simnet.go) serve both; a step passes them its
// shard, which selects that shard's wheel and counters and the merge buffer.
package simnet

import (
	"sync"

	"repro/internal/sched"
)

// shardState is one execution shard: a wheel of the events owned by the
// shard's nodes, private traffic counters, and the buffer of events
// generated during the current step. Only the shard's worker touches it
// inside a step; the driving goroutine merges the buffers between steps.
type shardState struct {
	queue  sched.Queue[event]
	stats  Stats
	curSeq uint64  // seq of the event being dispatched
	gen    []event // generated this step; seq is the parent's until the merge
	head   int     // merge cursor into gen
	count  int     // events dispatched in the current step
	// Shards sit adjacently in one slice and are written by different
	// workers; keep them off each other's cache lines.
	_ [64]byte
}

// step dispatches every event due at instant t, one worker per shard with
// due events, then merges the events they generated.
func (n *Network) step(t int64) int {
	n.parallel = true
	var wg sync.WaitGroup
	for i := range n.shards {
		sh := &n.shards[i]
		sh.count = 0
		if pt, ok := sh.queue.PeekTime(); !ok || pt > t {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.count = n.dispatchDue(t, sh)
		}()
	}
	wg.Wait()
	n.parallel = false
	n.merge()
	total := 0
	for i := range n.shards {
		total += n.shards[i].count
	}
	return total
}

// merge ends a step: a P-way merge of the shards' generated-event buffers
// by parent seq — reconstructing the order the sequential engine would have
// pushed them — assigning the dense global sequence numbers in merge order
// and routing every event to its owner shard's wheel. Ties are impossible
// across shards (parent seqs are globally unique) and same-parent runs stay
// in generation order because the merge only ever advances buffer heads.
func (n *Network) merge() {
	for {
		var best *shardState
		for i := range n.shards {
			sh := &n.shards[i]
			if sh.head < len(sh.gen) && (best == nil || sh.gen[sh.head].seq < best.gen[best.head].seq) {
				best = sh
			}
		}
		if best == nil {
			break
		}
		n.push(nil, best.gen[best.head])
		best.head++
	}
	for i := range n.shards {
		sh := &n.shards[i]
		clear(sh.gen) // drop message references
		sh.gen, sh.head = sh.gen[:0], 0
	}
}
