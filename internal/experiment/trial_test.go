package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/truth"
)

// fakeEngine drives the trial driver with no network and no clock: its
// world is a fixed ring whose nodes hold either perfect or empty
// structures, rewritten per cycle by a script.
type fakeEngine struct {
	t       *trial // set after newTrial, for the ordering checks
	descs   []peer.Descriptor
	perfect []truth.Member // every node with complete structures
	empty   []truth.Member // every node with nothing learned yet
	// imperfect lists, per cycle, the nodes presented with empty
	// structures; a cycle without an entry repeats the previous one's.
	imperfect map[int][]int
	current   []int
	faults    map[int][2][]id.ID // cycle → {added, removed}
	last      int
	log       []string
	atFreeze  func()
}

func newFakeEngine(t *testing.T, n int) *fakeEngine {
	cfg := core.DefaultConfig()
	ids := id.Unique(n, 5)
	f := &fakeEngine{last: -1, imperfect: map[int][]int{}, faults: map[int][2][]id.ID{}}
	for i, v := range ids {
		f.descs = append(f.descs, peer.Descriptor{ID: v, Addr: peer.Addr(i)})
	}
	for _, d := range f.descs {
		leaf, table := core.NewLeafSet(d.ID, cfg.C), core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		leaf.Update(f.descs)
		table.AddAll(f.descs)
		f.perfect = append(f.perfect, truth.Member{Self: d.ID, Leaf: leaf, Table: table})
		f.empty = append(f.empty, truth.Member{Self: d.ID, Leaf: core.NewLeafSet(d.ID, cfg.C), Table: core.NewPrefixTable(d.ID, cfg.B, cfg.K)})
	}
	return f
}

func (f *fakeEngine) trial(t *testing.T, spec measureSpec, keepRunning bool) *trial {
	ids := make([]id.ID, len(f.descs))
	for i, d := range f.descs {
		ids[i] = d.ID
	}
	tr, err := newTrial(f, ids, core.DefaultConfig(), 1, spec, keepRunning)
	if err != nil {
		t.Fatal(err)
	}
	f.t = tr
	return tr
}

func (f *fakeEngine) applyFaults(cycle int) (added, removed []id.ID, err error) {
	f.log = append(f.log, fmt.Sprintf("apply %d", cycle))
	if nodes, ok := f.imperfect[cycle]; ok {
		f.current = nodes
	}
	d := f.faults[cycle]
	return d[0], d[1], nil
}
func (f *fakeEngine) lastFault() int { return f.last }
func (f *fakeEngine) advance(int)    { f.log = append(f.log, "advance") }
func (f *fakeEngine) freeze() {
	f.log = append(f.log, "freeze")
	if f.atFreeze != nil {
		f.atFreeze()
	}
}
func (f *fakeEngine) thaw() { f.log = append(f.log, "thaw") }
func (f *fakeEngine) appendMembers(dst []truth.Member, _ int) ([]truth.Member, int) {
	dst = append(dst, f.perfect...)
	for _, i := range f.current {
		dst[i] = f.empty[i]
	}
	return dst, len(f.perfect)
}
func (f *fakeEngine) traffic() traffic { return traffic{sent: int64(len(f.log))} }

// TestTrialWaitsOutTheLastFault: a network that is perfect from cycle 0
// must not be declared converged — nor stop the run — before the engine's
// last scheduled fault has been applied. A pending mass join is the simnet
// engine's instance of the same rule.
func TestTrialWaitsOutTheLastFault(t *testing.T) {
	f := newFakeEngine(t, 32)
	f.last = 5
	tr := f.trial(t, measureSpec{}, false)
	if err := tr.run(20); err != nil {
		t.Fatal(err)
	}
	if tr.rec.convergedAt != 5 || len(tr.rec.points) != 6 {
		t.Fatalf("converged at %d after %d points; want the last fault's cycle 5 and 6 points", tr.rec.convergedAt, len(tr.rec.points))
	}
	for _, pt := range tr.rec.points {
		if pt.LeafMissing != 0 || pt.PrefixMissing != 0 {
			t.Fatalf("the fake's perfect world measured imperfect: %+v", pt)
		}
	}
	if got := (&simEngine{p: Params{Join: Join{Cycle: 4, Count: 8}}}).lastFault(); got != 4 {
		t.Errorf("simnet engine with a join at cycle 4 waits until %d", got)
	}
	if got := (&simEngine{p: Params{Churn: Churn{Rate: 0.1, StopCycle: 9}}}).lastFault(); got != -1 {
		t.Errorf("simnet engine under replacement churn alone waits until %d, want no wait", got)
	}
}

// TestTrialKeepRunningAfterPerfect: the run measures every cycle to the
// end, and ConvergedAt stays at the first perfect cycle even when the
// network regresses afterwards.
func TestTrialKeepRunningAfterPerfect(t *testing.T) {
	f := newFakeEngine(t, 32)
	f.imperfect = map[int][]int{0: {3, 7}, 2: nil, 4: {9}, 6: nil}
	tr := f.trial(t, measureSpec{}, true)
	if err := tr.run(8); err != nil {
		t.Fatal(err)
	}
	if len(tr.rec.points) != 8 {
		t.Fatalf("%d points, want all 8 cycles measured", len(tr.rec.points))
	}
	if tr.rec.convergedAt != 2 {
		t.Errorf("ConvergedAt = %d, want the first perfect cycle 2", tr.rec.convergedAt)
	}
	for c, pt := range tr.rec.points {
		if imperfect := c < 2 || c == 4 || c == 5; imperfect == (pt.LeafMissing == 0) {
			t.Errorf("cycle %d: LeafMissing = %v, scripted imperfect = %v", c, pt.LeafMissing, imperfect)
		}
	}
	want := "apply 0,advance,freeze,thaw,apply 1,advance,freeze,thaw"
	if got := strings.Join(f.log[:8], ","); got != want {
		t.Errorf("cycle sequence %q, want %q", got, want)
	}
}

// TestTrialRefutedSampleIsReplaced: with four imperfect nodes in 64 a size-8
// sample often reads all-perfect. Such a cycle must neither stop the run
// nor stamp ConvergedAt, and must report the exact measurement that refuted
// it (SampleSize == 0, nonzero missing) — while a sample that happened to
// catch an imperfect node stays a sampled point. Once the world really is
// perfect the confirmed cycle keeps its sampled estimate and ends the run.
func TestTrialRefutedSampleIsReplaced(t *testing.T) {
	f := newFakeEngine(t, 64)
	f.imperfect = map[int][]int{0: {5, 21, 40, 60}, 12: nil}
	tr := f.trial(t, measureSpec{sample: 8, workers: 1}, false)
	tr.measRNG = rand.New(rand.NewSource(2))
	if err := tr.run(20); err != nil {
		t.Fatal(err)
	}
	if tr.rec.convergedAt != 12 || len(tr.rec.points) != 13 {
		t.Fatalf("converged at %d after %d points; want cycle 12, the first truly perfect one", tr.rec.convergedAt, len(tr.rec.points))
	}
	refuted, caught := 0, 0
	for _, pt := range tr.rec.points[:12] {
		if pt.LeafMissing == 0 && pt.PrefixMissing == 0 {
			t.Errorf("cycle %d: a refuted all-perfect sample survived as the reported point", pt.Cycle)
		}
		if pt.SampleSize == 0 {
			refuted++
		} else {
			caught++
		}
	}
	if refuted == 0 || caught == 0 {
		t.Errorf("refuted=%d caught=%d; the seed no longer exercises both outcomes", refuted, caught)
	}
	if last := tr.rec.points[12]; last.SampleSize != 8 || last.LeafMissing != 0 {
		t.Errorf("confirmed cycle reported %+v, want the sampled estimate", last)
	}
}

// TestTrialPatchesTruthBeforeFreeze: the membership delta a fault returns
// has reached the ground truth by the time the world stops, so the frozen
// window covers only the state inspection.
func TestTrialPatchesTruthBeforeFreeze(t *testing.T) {
	f := newFakeEngine(t, 16)
	joiner, leaver := id.Unique(17, 99)[16], f.descs[4].ID
	f.faults[1] = [2][]id.ID{{joiner}, {leaver}}
	tr := f.trial(t, measureSpec{}, true)
	var seen []string
	f.atFreeze = func() {
		seen = append(seen, fmt.Sprintf("joiner=%t leaver=%t", f.t.tr.Contains(joiner), f.t.tr.Contains(leaver)))
	}
	if err := tr.run(2); err != nil {
		t.Fatal(err)
	}
	if want := []string{"joiner=false leaver=true", "joiner=true leaver=false"}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("truth membership at each freeze = %v, want %v", seen, want)
	}
}

// TestSocketDrainFailureIsReported: a socket trial whose counters never
// settle must come back as an error naming the unconserved difference, not
// as a clean result. The engine runs over the in-memory link with a quiesce
// capability that always reports failure.
func TestSocketDrainFailureIsReported(t *testing.T) {
	e, err := openHostEngine(quickLiveParams(8, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	var asked time.Duration
	e.quiesce = func(timeout time.Duration) bool {
		asked = timeout
		return false
	}
	if err := e.rt.Start(); err != nil {
		t.Fatal(err)
	}
	_, err = e.finish()
	if err == nil || !strings.Contains(err.Error(), "Sent − Delivered − Dropped − Overflow = ") {
		t.Fatalf("finish after a failed drain: err = %v", err)
	}
	if asked != DrainBudget {
		t.Errorf("quiesce was given %s, want DrainBudget", asked)
	}
}
