// Sharded execution: the sequential step, split across parallel workers.
//
// With Config.Shards = P > 1, node addr is homed on worker uint32(addr) % P.
// Run still keeps the one event queue and moves the clock to its earliest
// pending instant t; step then pops every event due at t into per-shard
// batches, each event tagged with its index in the instant's pop order,
// and the workers dispatch their batches concurrently. Every event a
// dispatch generates lands strictly after t — a message one instant on (the
// delivery rule), a tick one period on — so no worker needs another's
// output inside the step: Send and tick rescheduling only append to the
// dispatching worker's buffer, tagged with the batch index of the event
// being dispatched.
//
// Determinism: the merge replays the sequential order. The sequential
// engine dispatches an instant's events in pop order and, while dispatching
// each, routes its sends and pushes its ticks in generation order. Each
// worker dispatches its part of the batch in pop order and appends in
// generation order, so its buffer is sorted by (batch index, generation
// order); merging the P buffers on the batch index replays exactly the
// sequential sequence of pushes and sends, and the sends go through the
// sequential engine's own route — link fault, drop draw from the network's
// one RNG, push — on the driving goroutine. The queue therefore holds the
// same events in the same order after every step, and by induction the
// whole run is the sequential run, for any shard count, provided
// dispatching never consults global mutable state. The engine guarantees
// that for its own state (per-worker delivery counters, per-node RNGs);
// a workload whose protocols share mutable state across nodes must make it
// per node — the experiment harness swaps its one such object (the
// oracle's shared sample stream) for per-node streams when sharding.
package simnet

import (
	"sync"

	"repro/internal/peer"
)

// shardState is one dispatch worker: the instant's events homed on it, the
// events their dispatch generated, and the delivery counters. Only the
// worker touches it inside a step; the driving goroutine fills the batch
// before and merges the buffer after.
type shardState struct {
	batch []tagged // this step's events, tagged with their batch index
	gen   []tagged // generated this step, tagged with the parent's index
	cur   int32    // batch index of the event being dispatched
	head  int      // merge cursor into gen
	stats Stats    // Delivered and DeadDest of this worker's dispatches
	// Shards sit adjacently in one slice and are written by different
	// workers; keep them off each other's cache lines.
	_ [64]byte
}

// tagged is an event with the batch index that orders it in the merge.
type tagged struct {
	idx int32
	e   event
}

// home returns the worker that dispatches addr's events.
func (n *Network) home(addr peer.Addr) *shardState {
	return &n.shards[uint32(addr)%uint32(len(n.shards))]
}

// buffer records an event generated by the event being dispatched.
func (sh *shardState) buffer(e event) {
	sh.gen = append(sh.gen, tagged{sh.cur, e})
}

// step dispatches every event due at instant t, one worker per shard with
// due events, then merges the events they generated.
func (n *Network) step(t int64) int {
	count := int32(0)
	for ; ; count++ {
		if pt, ok := n.queue.PeekTime(); !ok || pt > t {
			break
		}
		e, _ := n.queue.Pop()
		sh := n.home(e.to)
		sh.batch = append(sh.batch, tagged{count, e})
	}
	n.parallel = true
	var wg sync.WaitGroup
	for i := range n.shards {
		sh := &n.shards[i]
		if len(sh.batch) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range sh.batch {
				sh.cur = b.idx
				n.dispatch(b.e, sh)
			}
		}()
	}
	wg.Wait()
	n.parallel = false
	n.merge()
	return int(count)
}

// merge ends a step: a P-way merge of the workers' buffers by batch index,
// replaying the sequential engine's pushes in its order — ticks straight
// into the queue, messages through route. Indexes are unique to one worker
// and each buffer is already in order, so the merge only advances heads.
func (n *Network) merge() {
	for {
		var best *shardState
		for i := range n.shards {
			sh := &n.shards[i]
			if sh.head < len(sh.gen) && (best == nil || sh.gen[sh.head].idx < best.gen[best.head].idx) {
				best = sh
			}
		}
		if best == nil {
			break
		}
		e := best.gen[best.head].e
		best.head++
		if e.kind == evMessage {
			n.route(e)
		} else {
			n.queue.Push(e.time, e)
		}
	}
	for i := range n.shards {
		sh := &n.shards[i]
		clear(sh.batch) // drop message references
		clear(sh.gen)
		sh.batch, sh.gen, sh.head = sh.batch[:0], sh.gen[:0], 0
	}
}
