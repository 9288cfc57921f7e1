// Sharded execution: conservative parallel discrete-event simulation.
//
// With Config.Shards > 1 the nodes are partitioned across P execution
// shards, each owning a calendar wheel (internal/sched) holding exactly the
// events addressed to its nodes. The engine advances in windows: it finds
// the earliest pending event time `base` and lets every shard dispatch its
// own events through [base, base+W-1] concurrently, where the lookahead W
// is the minimum distance any dispatched event can project a new event into
// the future — the smaller of the message-latency floor and the smallest
// attached tick period. Every event generated inside a window therefore
// lands strictly beyond it, so shards never need to see each other's
// mid-window output: generated events buffer per shard and cross the shard
// boundary at the window barrier.
//
// Determinism is the sequential engine's own contract, replicated. The
// sequential engine dispatches in strict (time, insertion-seq) order and
// stamps children with consecutive sequence numbers in push order. Inside a
// parallel window each shard dispatches its slice of the global (time, seq)
// order in that order, and appends generated events in push order, so each
// shard's buffer is already sorted by (parent time, parent seq, push
// index). The barrier merges the P buffers on exactly that key — which
// reconstructs the global sequential push order — and assigns the dense
// global sequence numbers in merge order. The wheels' pop order is (time,
// insertion-seq), so the next window again dispatches the sequential order:
// by induction the whole run is event-for-event identical to the sequential
// engine, for any shard count, provided dispatching itself never consults
// global mutable state. The engine guarantees that for its own state
// (per-shard stats, per-node RNGs, per-node wire streams); workloads whose
// protocols share mutable state across nodes forfeit cross-count
// byte-identity but stay deterministic per shard count only if that state
// is itself deterministic — the experiment harness swaps its one such
// object (the oracle's shared sample stream) for per-node streams when
// sharding.
//
// evFunc events (At closures) may touch arbitrary network state, so any
// window containing one runs serially on the driving goroutine in global
// (time, seq) order — the sequential semantics exactly.
//
// The event-handling body is not replicated per engine: dispatch, Send and
// push (simnet.go) serve the sequential engine and both window kinds; a
// parallel window passes them its shard, which selects that shard's
// counters and clock and the barrier buffer instead of a wheel.
package simnet

import (
	"math"
	"sync"
)

// shardState is one execution shard: a wheel of the events owned by the
// shard's nodes, private traffic counters, a shard-local clock, and the
// buffer of events generated during the current window. Only the shard's
// worker touches it inside a window; the driving goroutine merges the
// buffers at the barrier.
type shardState struct {
	queue  eventQueue
	stats  Stats
	now    int64  // time of the event being dispatched
	curSeq uint64 // seq of the event being dispatched
	wend   int64  // current window end (lookahead-violation guard)
	gen    []genEvent
	count  int // events dispatched in the current window
	// Shards sit adjacently in one slice and are written by different
	// workers; keep them off each other's cache lines.
	_ [64]byte
}

// genEvent is an event generated inside a parallel window, tagged with the
// (time, seq) of the event whose dispatch generated it. The tag is the
// barrier's merge key; ev.seq is assigned there.
type genEvent struct {
	ptime int64
	pseq  uint64
	ev    event
}

// lookahead returns the conservative window width W: the minimum distance
// a dispatched event can schedule into the future. Message latency is
// floored at 1 (Send clamps the MinLatency == 0 wire draw), and ticks
// reschedule one period ahead, so W = min(latency floor, smallest attached
// period). Recomputed per window: an Attach during a serial window may
// lower the period bound.
func (n *Network) lookahead() int64 {
	w := int64(1)
	if n.cfg.MaxLatency > 0 && n.cfg.MinLatency > 1 {
		w = n.cfg.MinLatency
	}
	if n.minPeriod > 0 && n.minPeriod < w {
		w = n.minPeriod
	}
	return w
}

// runSharded is Run for the sharded engine: window-at-a-time until no
// event at or before until remains. A window starts at the earliest pending
// event and spans one lookahead; it runs serially iff a coordinator event
// is due inside it, else in parallel.
func (n *Network) runSharded(until int64) int {
	processed := 0
	for {
		base := int64(math.MaxInt64)
		for i := range n.shards {
			sh := &n.shards[i]
			if sh.queue.len() > 0 {
				if t := sh.queue.peekTime(); t < base {
					base = t
				}
			}
		}
		if n.coord.len() > 0 {
			if t := n.coord.peekTime(); t < base {
				base = t
			}
		}
		if base == math.MaxInt64 || base > until {
			break
		}
		wend := base + n.lookahead() - 1
		if wend > until {
			wend = until
		}
		if n.coord.len() > 0 && n.coord.peekTime() <= wend {
			processed += n.runSerialWindow(wend)
		} else {
			processed += n.runParallelWindow(wend)
		}
		// Every event left anywhere is beyond wend, so the global clock
		// advances monotonically window by window.
		n.now = wend
	}
	if n.now < until {
		n.now = until
	}
	return processed
}

// runParallelWindow dispatches every event in (base, wend] concurrently,
// one worker per shard with due events, then merges the generated events
// at the barrier.
func (n *Network) runParallelWindow(wend int64) int {
	n.mode = modeParallel
	var wg sync.WaitGroup
	for i := range n.shards {
		sh := &n.shards[i]
		sh.count = 0
		if sh.queue.len() == 0 || sh.queue.peekTime() > wend {
			continue
		}
		sh.wend = wend
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			cnt := 0
			for sh.queue.len() > 0 && sh.queue.peekTime() <= wend {
				e := sh.queue.pop()
				sh.now = e.time
				sh.curSeq = e.seq
				n.dispatch(e, &sh.stats, sh)
				cnt++
			}
			sh.count = cnt
		}(sh)
	}
	wg.Wait()
	n.mode = modeIdle
	n.mergeGenerated()
	total := 0
	for i := range n.shards {
		total += n.shards[i].count
	}
	return total
}

// mergeGenerated is the window barrier: a P-way merge of the shards'
// generated-event buffers by (parent time, parent seq) — reconstructing
// the order the sequential engine would have pushed them — assigning the
// dense global sequence numbers in merge order and routing every event to
// its owner shard's wheel. Ties are impossible across shards (parent seqs
// are globally unique) and same-parent runs stay in generation order
// because the merge only ever advances list heads.
func (n *Network) mergeGenerated() {
	heads := n.mergeHeads[:0]
	total := 0
	for i := range n.shards {
		heads = append(heads, 0)
		total += len(n.shards[i].gen)
	}
	n.mergeHeads = heads
	for done := 0; done < total; done++ {
		best := -1
		for i := range n.shards {
			if heads[i] >= len(n.shards[i].gen) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			g := &n.shards[i].gen[heads[i]]
			bg := &n.shards[best].gen[heads[best]]
			if g.ptime < bg.ptime || (g.ptime == bg.ptime && g.pseq < bg.pseq) {
				best = i
			}
		}
		g := &n.shards[best].gen[heads[best]]
		heads[best]++
		n.push(nil, g.ev)
	}
	for i := range n.shards {
		sh := &n.shards[i]
		clear(sh.gen) // drop message references
		sh.gen = sh.gen[:0]
	}
}

// runSerialWindow dispatches every event due in the window on the driving
// goroutine in global (time, seq) order — the sequential engine's exact
// semantics, including immediate sequencing of generated events. It runs
// whenever an evFunc is due in the window: closures may kill nodes, attach
// protocols, or schedule work at the current instant, none of which can
// overlap a parallel window.
func (n *Network) runSerialWindow(wend int64) int {
	n.mode = modeSerial
	cnt := 0
	for {
		const coordIdx = -1
		best := -2
		var bt int64
		var bs uint64
		if e, ok := n.coord.peek(); ok && e.time <= wend {
			best, bt, bs = coordIdx, e.time, e.seq
		}
		for i := range n.shards {
			e, ok := n.shards[i].queue.peek()
			if !ok || e.time > wend {
				continue
			}
			if best == -2 || e.time < bt || (e.time == bt && e.seq < bs) {
				best, bt, bs = i, e.time, e.seq
			}
		}
		if best == -2 {
			break
		}
		var e event
		if best == coordIdx {
			e = n.coord.pop()
		} else {
			e = n.shards[best].queue.pop()
		}
		n.now = e.time
		n.dispatch(e, &n.stats, nil)
		cnt++
	}
	n.mode = modeIdle
	return cnt
}

// wireRNG is a tiny per-node deterministic stream (SplitMix64) for the
// sharded engine's in-window drop and latency draws: 8 bytes of state per
// node — against math/rand's ~5 KB — and a pure function of (config seed,
// address), so the stream each node consumes is independent of the shard
// count.
type wireRNG struct{ state uint64 }

func newWireRNG(seed, addr uint64) wireRNG {
	return wireRNG{state: splitmix64(seed ^ (addr+1)*0xbf58476d1ce4e5b9)}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (w *wireRNG) next() uint64 {
	w.state += 0x9e3779b97f4a7c15
	x := w.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (w *wireRNG) float64() float64 { return float64(w.next()>>11) / (1 << 53) }

// int63n returns a near-uniform draw in [0, n) for positive n. The modulo
// bias is ~n/2^63 — irrelevant for latency windows — and determinism, not
// exact uniformity, is the contract here.
func (w *wireRNG) int63n(n int64) int64 { return int64(w.next()>>1) % n }
