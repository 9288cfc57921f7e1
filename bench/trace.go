package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one traced call site. The table below maps each kind to
// the span name written to the trace file and the layer (repo package)
// whose time it is.
type spanKind uint8

const (
	spTrial spanKind = iota // one whole trial; root of everything in it
	spSetup                 // bench-side wiring before the timed region
	spCoreNew
	spCoreInit
	spCoreTick
	spCoreHandle
	spNewscastInit
	spNewscastTick
	spNewscastHandle
	spSample
	spOracleUpdate
	spSend // ctx.Send from inside a callback: engine (and codec) work
	spSimRun
	spSimKill
	spLiveStart
	spLiveClose
	spLiveRun
	spLivePause
	spLiveResume
	spLiveKill
	spLiveRespawn
	spSockStart
	spSockRun
	spSockQuiesce
	spSockClose
	spTruthNew
	spTruthMeasureAll
	spTruthMeasureSample
	spTruthUpdate
	spPastryFrom
	spDHTNew
	spDHTRemove
	spDHTJoin
	spLoadPreload
	spLoadCycle
	numSpanKinds
)

var spanTable = [numSpanKinds]struct{ name, layer string }{
	spTrial:              {"bench.trial", "bench"},
	spSetup:              {"bench.setup", "bench"},
	spCoreNew:            {"core.new_node", "core"},
	spCoreInit:           {"core.init", "core"},
	spCoreTick:           {"core.tick", "core"},
	spCoreHandle:         {"core.handle", "core"},
	spNewscastInit:       {"newscast.init", "newscast"},
	spNewscastTick:       {"newscast.tick", "newscast"},
	spNewscastHandle:     {"newscast.handle", "newscast"},
	spSample:             {"sampling.sample", "sampling"},
	spOracleUpdate:       {"sampling.oracle_update", "sampling"},
	spSend:               {"engine.send", engineLayer},
	spSimRun:             {"simnet.run", "simnet"},
	spSimKill:            {"simnet.kill", "simnet"},
	spLiveStart:          {"livenet.start", "livenet"},
	spLiveClose:          {"livenet.close", "livenet"},
	spLiveRun:            {"livenet.run", "livenet"},
	spLivePause:          {"livenet.pause_all", "livenet"},
	spLiveResume:         {"livenet.resume_all", "livenet"},
	spLiveKill:           {"livenet.kill", "livenet"},
	spLiveRespawn:        {"livenet.respawn", "livenet"},
	spSockStart:          {"transport.start", "transport"},
	spSockRun:            {"transport.run", "transport"},
	spSockQuiesce:        {"transport.quiesce", "transport"},
	spSockClose:          {"transport.close", "transport"},
	spTruthNew:           {"truth.new", "truth"},
	spTruthMeasureAll:    {"truth.measure_all", "truth"},
	spTruthMeasureSample: {"truth.measure_sample", "truth"},
	spTruthUpdate:        {"truth.update", "truth"},
	spPastryFrom:         {"pastry.from_bootstrap", "pastry"},
	spDHTNew:             {"dht.new_cluster", "dht"},
	spDHTRemove:          {"dht.remove", "dht"},
	spDHTJoin:            {"dht.join", "dht"},
	spLoadPreload:        {"load.preload", "load"},
	spLoadCycle:          {"load.run_cycle", "load"},
}

// span is one timed interval. id and parent are tracer-wide: the buffer
// index in the high 32 bits, the position inside the buffer in the low 32.
// parent is noSpan for a root.
type span struct {
	kind       spanKind
	trial      int32
	parent     int64
	start, end int64 // ns since the tracer's epoch
}

const noSpan int64 = -1

// engineLayer is the placeholder layer of engine.send spans; the tracer
// replaces it with the engine the workload runs on.
const engineLayer = "engine"

// traceBuf is an append-only span buffer owned by one goroutine at a time
// (the harness goroutine, or whichever goroutine an engine serialises one
// node's callbacks on), so recording takes no lock.
type traceBuf struct {
	t     *tracer
	index int64
	spans []span
}

// tracer hands out buffers and owns the clock. The zero epoch is the
// moment the tracer was made.
type tracer struct {
	epoch time.Time
	// engineName is the layer engine.send spans are charged to.
	engineName string
	trial      atomic.Int32
	// engine is the id of the span the engine is currently running under
	// (simnet.run, livenet.run, transport.run): callbacks fired by the
	// engine on other goroutines record it as their parent.
	engine atomic.Int64
	// inside and around are what recording one span costs, measured when
	// the tracer is made: inside is the part that falls between the
	// span's two clock reads and so reads as its duration, around the
	// rest. Sub-microsecond spans would otherwise mostly measure the
	// clock; summarize takes both back out.
	inside, around int64

	mu   sync.Mutex
	bufs []*traceBuf
}

func newTracer(engineName string) *tracer {
	t := &tracer{epoch: time.Now(), engineName: engineName}
	t.engine.Store(noSpan)
	t.calibrate()
	return t
}

// calibrate times empty spans on a scratch buffer.
func (t *tracer) calibrate() {
	const n = 20000
	b := &traceBuf{t: t, spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b.end(b.begin(spTrial, noSpan))
	}
	each := time.Since(t0).Nanoseconds() / n
	durs := make([]float64, n)
	for i, sp := range b.spans {
		durs[i] = float64(sp.end - sp.start)
	}
	t.inside = min(int64(median(durs)), each)
	t.around = each - t.inside
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// layerOf resolves a span kind's layer.
func (t *tracer) layerOf(k spanKind) string {
	if l := spanTable[k].layer; l != engineLayer {
		return l
	}
	return t.engineName
}

func (t *tracer) newBuf() *traceBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Room for a node's whole trial, so that with thousands of buffers
	// growing in step the traced run does not spend its time re-copying
	// them (that alone put churn-sim's tracing overhead past 15%).
	b := &traceBuf{t: t, index: int64(len(t.bufs)), spans: make([]span, 0, 256)}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its id; end closes it. The clock is read
// last in begin and first in end, so the bookkeeping stays outside the
// span's own interval.
func (b *traceBuf) begin(kind spanKind, parent int64) int64 {
	b.spans = append(b.spans, span{kind: kind, trial: b.t.trial.Load(), parent: parent})
	i := len(b.spans) - 1
	b.spans[i].start = b.t.now()
	return b.index<<32 | int64(i)
}

func (b *traceBuf) end(id int64) {
	b.spans[id&0xffffffff].end = b.t.now()
}

// scope is the harness goroutine's view of the tracer: a buffer plus a
// stack, so nested harness-side spans find their parent. A nil scope
// records nothing, which is how the untraced harness runs the same code.
type scope struct {
	buf   *traceBuf
	stack []int64
}

func (t *tracer) newScope() *scope {
	if t == nil {
		return nil
	}
	return &scope{buf: t.newBuf()}
}

func (s *scope) top() int64 {
	if s == nil || len(s.stack) == 0 {
		return noSpan
	}
	return s.stack[len(s.stack)-1]
}

// open starts a span under the innermost open one; the returned func
// closes it. Spans must close in LIFO order.
func (s *scope) open(kind spanKind) func() {
	if s == nil {
		return func() {}
	}
	id := s.buf.begin(kind, s.top())
	s.stack = append(s.stack, id)
	return func() {
		s.buf.end(id)
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// openEngine is open for the span an engine runs callbacks under: it also
// publishes the span as the parent of those callbacks.
func (s *scope) openEngine(kind spanKind) func() {
	if s == nil {
		return func() {}
	}
	done := s.open(kind)
	t := s.buf.t
	prev := t.engine.Swap(s.top())
	return func() {
		t.engine.Store(prev)
		done()
	}
}

// spanStats aggregates the spans of one kind; selfs holds every span's self
// time, for percentiles.
type spanStats struct {
	n       int64
	sumDur  int64 // ns
	sumSelf int64 // ns
	selfs   []float64
}

// summary is what the per-layer metrics are derived from.
type summary struct {
	kinds [numSpanKinds]spanStats
	// layerSelf sums self time per layer name.
	layerSelf map[string]int64
}

type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals, clipped to
// [lo, hi]. It sorts iv in place.
func unionLen(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	open := false
	for _, x := range iv {
		s, e := max(x.start, lo), min(x.end, hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// summarize computes every span's self time — its duration minus the part
// of that interval its child spans cover — and aggregates by kind and by
// layer. Children may overlap each other (callbacks on concurrent
// goroutines), so their cover is the union of their intervals, clipped to
// the parent. The calibrated cost of recording is taken out first: every
// duration loses the part of it that was clock reads, and every child
// takes its whole recording cost out of its parent.
func (t *tracer) summarize() *summary {
	t.mu.Lock()
	bufs := append([]*traceBuf(nil), t.bufs...)
	t.mu.Unlock()

	children := make(map[int64][]interval)
	for _, b := range bufs {
		for _, sp := range b.spans {
			if sp.parent != noSpan && sp.end != 0 {
				children[sp.parent] = append(children[sp.parent], interval{sp.start - t.around/2, sp.end + t.around/2})
			}
		}
	}

	sum := &summary{layerSelf: make(map[string]int64)}
	for _, b := range bufs {
		for i, sp := range b.spans {
			if sp.end == 0 {
				continue // never closed: the run was cut short
			}
			dur := max(0, sp.end-sp.start-t.inside)
			self := dur
			if iv := children[b.index<<32|int64(i)]; iv != nil {
				self -= min(dur, unionLen(iv, sp.start, sp.end))
			}
			st := &sum.kinds[sp.kind]
			st.n++
			st.sumDur += dur
			st.sumSelf += self
			st.selfs = append(st.selfs, float64(self))
			sum.layerSelf[t.layerOf(sp.kind)] += self
		}
	}
	return sum
}

// maxTraceSpans caps the spans written per buffer-ordered trace file; the
// aggregates are always computed from every span.
const maxTraceSpans = 200_000

// write dumps the spans as JSON to path. Files stay readable by capping
// the span count; "dropped" says how many were left out.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	bufs := append([]*traceBuf(nil), t.bufs...)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"epoch_unix_ns\":%d,\"spans\":[", workload, seed, t.epoch.UnixNano())
	written, dropped := 0, 0
	var line []byte
	for _, b := range bufs {
		for i, sp := range b.spans {
			if written >= maxTraceSpans {
				dropped++
				continue
			}
			line = line[:0]
			if written > 0 {
				line = append(line, ',')
			}
			line = append(line, "\n{\"id\":"...)
			line = strconv.AppendInt(line, b.index<<32|int64(i), 10)
			line = append(line, ",\"name\":\""...)
			line = append(line, spanTable[sp.kind].name...)
			line = append(line, "\",\"layer\":\""...)
			line = append(line, t.layerOf(sp.kind)...)
			line = append(line, "\",\"trial\":"...)
			line = strconv.AppendInt(line, int64(sp.trial), 10)
			line = append(line, ",\"parent\":"...)
			line = strconv.AppendInt(line, sp.parent, 10)
			line = append(line, ",\"start_ns\":"...)
			line = strconv.AppendInt(line, sp.start, 10)
			line = append(line, ",\"end_ns\":"...)
			line = strconv.AppendInt(line, sp.end, 10)
			line = append(line, '}')
			w.Write(line)
			written++
		}
	}
	fmt.Fprintf(w, "\n],\"dropped\":%d}\n", dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
