package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// rawTracer is a tracer with no recording cost to take out, so the tests
// below can state self times exactly.
func rawTracer() *tracer {
	t := &tracer{engineName: "simnet"}
	t.engine.Store(noSpan)
	return t
}

// put appends a finished span with explicit times and returns its id.
func put(b *traceBuf, kind spanKind, parent, start, end int64) int64 {
	b.spans = append(b.spans, span{kind: kind, parent: parent, start: start, end: end})
	return b.index<<32 | int64(len(b.spans)-1)
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	tr := rawTracer()
	b := tr.newBuf()
	root := put(b, spTrial, noSpan, 0, 1000)
	run := put(b, spSimRun, root, 100, 900)
	tick := put(b, spCoreTick, run, 200, 400)
	put(b, spSample, tick, 250, 300)
	put(b, spCoreHandle, run, 500, 600) // sibling of tick

	s := tr.summarize()
	for _, c := range []struct {
		kind spanKind
		self int64
	}{
		{spTrial, 200},      // 1000 - the 800 of run
		{spSimRun, 500},     // 800 - tick 200 - handle 100
		{spCoreTick, 150},   // 200 - sample 50
		{spSample, 50},      // leaf
		{spCoreHandle, 100}, // leaf
	} {
		if got := s.kinds[c.kind].sumSelf; got != c.self {
			t.Errorf("%s self = %d, want %d", spanTable[c.kind].name, got, c.self)
		}
	}
	if got := s.layerSelf["core"]; got != 250 {
		t.Errorf("core layer self = %d, want 250", got)
	}
	var total int64
	for _, v := range s.layerSelf {
		total += v
	}
	if total != 1000 {
		t.Errorf("layer self times sum to %d, want the root's 1000", total)
	}
}

func TestSelfTimeConcurrentChildren(t *testing.T) {
	tr := rawTracer()
	main, h1, h2 := tr.newBuf(), tr.newBuf(), tr.newBuf()
	run := put(main, spLiveRun, noSpan, 0, 1000)
	// Two hosts' callbacks overlap on [300, 400], and one outlives the
	// parent: the cover is the union clipped to the parent, 600 + 100.
	put(h1, spCoreTick, run, 100, 400)
	put(h2, spCoreHandle, run, 300, 700)
	put(h2, spCoreHandle, run, 900, 1200)

	s := tr.summarize()
	if got := s.kinds[spLiveRun].sumSelf; got != 300 {
		t.Errorf("run self = %d, want 300", got)
	}
	// Children keep their whole own time, so concurrent layers can sum
	// past the wall.
	if got := s.layerSelf["core"]; got != 300+400+300 {
		t.Errorf("core self = %d, want 1000", got)
	}
}

func TestSelfTimeRemovesRecordingCost(t *testing.T) {
	tr := rawTracer()
	tr.inside, tr.around = 10, 30
	b := tr.newBuf()
	parent := put(b, spCoreTick, noSpan, 0, 1010) // 1000 of work + its own clock reads
	put(b, spSample, parent, 100, 210)            // 100 of work + clock reads
	s := tr.summarize()
	if got := s.kinds[spSample].sumSelf; got != 100 {
		t.Errorf("child self = %d, want 100", got)
	}
	// The child takes its interval and the cost around it out of the parent.
	if got := s.kinds[spCoreTick].sumSelf; got != 1000-(110+30) {
		t.Errorf("parent self = %d, want 860", got)
	}
}

func TestSendSpansChargeTheEngine(t *testing.T) {
	tr := rawTracer()
	tr.engineName = "transport"
	b := tr.newBuf()
	h := put(b, spCoreHandle, noSpan, 0, 100)
	put(b, spSend, h, 10, 40)
	s := tr.summarize()
	if s.layerSelf["transport"] != 30 || s.layerSelf["core"] != 70 {
		t.Errorf("layer self = %v, want transport 30 and core 70", s.layerSelf)
	}
}

func TestScopeAndDecoratorsLinkParents(t *testing.T) {
	tr := newTracer("simnet")
	sc := tr.newScope()
	closeTrial := sc.open(spTrial)
	closeRun := sc.openEngine(spSimRun)
	runID := sc.top()
	d := newTracedProto(tr, &relayProto{}, spCoreInit, spCoreTick, spCoreHandle)
	d.Tick(&nullContext{})
	closeRun()
	closeTrial()
	if tr.engine.Load() != noSpan {
		t.Error("engine span still published after it closed")
	}
	if got := d.buf.spans[0]; got.kind != spCoreTick || got.parent != runID || got.end < got.start {
		t.Errorf("callback span = %+v, want a core.tick under span %d", got, runID)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path, "x", 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string
		Spans    []struct {
			Name, Layer string
			ID, Parent  int64
			Start       int64 `json:"start_ns"`
			End         int64 `json:"end_ns"`
		}
		Dropped int
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if file.Workload != "x" || len(file.Spans) != 3 || file.Dropped != 0 {
		t.Errorf("trace file = %+v", file)
	}
}

func TestUnionLen(t *testing.T) {
	iv := []interval{{50, 60}, {0, 10}, {5, 20}, {20, 30}, {100, 200}}
	if got := unionLen(iv, 0, 150); got != 30+10+50 {
		t.Errorf("unionLen = %d, want 90", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("unionLen of nothing = %d", got)
	}
}
