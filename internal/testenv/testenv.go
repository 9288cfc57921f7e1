// Package testenv is what the tests share: how their binary was built, the
// one way they wait for a wall-clock engine, and the counting fake that
// audits proto.Recyclable retirement. Tests import it; nothing else does.
// It imports no package of this repository, so any package's internal
// tests may import it.
package testenv

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// Race reports whether the binary was built with -race. Allocation guards
// skip under it: the detector allocates on its own account, and sync.Pool
// drops a quarter of its Puts, so a count pinned without it does not hold.
func Race() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// awaitBound is how long Await waits before it fails the test. A
// wall-clock engine makes progress at the scheduler's pace, so a test waits
// for the event it needs; the bound only turns a hang into a failure.
const awaitBound = 10 * time.Second

// Await polls cond, a millisecond apart, until it reports true, and fails
// t if it does not within 10 s; what names the awaited event. cond runs on
// the test's goroutine, so it may keep state between polls.
func Await(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(awaitBound); !cond(); time.Sleep(time.Millisecond) { // poll interval
		if time.Now().After(deadline) {
			t.Fatalf("waited %v for %s", awaitBound, what)
		}
	}
}

// Ledger issues counting messages and audits their retirement: the
// engine-side half of the proto.Recyclable contract, Recycle exactly once
// per message, made observable. A missed Recycle shows as Issued above
// Retired, a second one as Doubles.
type Ledger struct {
	Issued, Retired, Doubles atomic.Int64
}

// New issues one counting message.
func (l *Ledger) New() *Counted {
	l.Issued.Add(1)
	return &Counted{led: l}
}

// Counted is the counting fake: a recyclable payload (it implements
// proto.Recyclable) whose retirement its Ledger records.
type Counted struct {
	led      *Ledger
	recycles atomic.Int32
}

// Recycle records the retirement, or a double one.
func (m *Counted) Recycle() {
	if m.recycles.Add(1) > 1 {
		m.led.Doubles.Add(1)
		return
	}
	m.led.Retired.Add(1)
}

// Check fails t unless the ledger issued something and every message it
// issued was retired exactly once; call it once the engine is closed.
func (l *Ledger) Check(t testing.TB) {
	t.Helper()
	issued := l.Issued.Load()
	if issued == 0 {
		t.Fatal("no message issued: the test exercised nothing")
	}
	if d := l.Doubles.Load(); d != 0 {
		t.Errorf("%d double recycles (contract: exactly once)", d)
	}
	if retired := l.Retired.Load(); retired != issued {
		t.Errorf("%d of %d messages never retired", issued-retired, issued)
	}
}
