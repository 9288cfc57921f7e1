package sampling

import (
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/testenv"
)

// TestStreamMatchesSampleSequence extends the "AppendSample must draw
// exactly the same sequence as Sample" contract to streams: two streams
// with the same key over identical oracles must draw identical sequences
// whichever entry point is used.
func TestStreamMatchesSampleSequence(t *testing.T) {
	a := NewOracle(members(200), 77).Stream(5)
	b := NewOracle(members(200), 77).Stream(5)
	var buf []peer.Descriptor
	for round := 0; round < 50; round++ {
		sa := a.Sample(7)
		buf = b.AppendSample(buf[:0], 7)
		if len(sa) != len(buf) {
			t.Fatalf("round %d: lengths differ (%d vs %d)", round, len(sa), len(buf))
		}
		for i := range sa {
			if sa[i] != buf[i] {
				t.Fatalf("round %d pos %d: Sample drew %v, AppendSample drew %v", round, i, sa[i], buf[i])
			}
		}
	}
}

// TestStreamAppendSampleAllocs checks that a stream draws the protocol's
// cr = 30 samples into a buffer with room without allocating: the drawn
// indices live on the stack, and the stream keeps no scratch.
func TestStreamAppendSampleAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector allocates on its own account")
	}
	s := NewOracle(members(1000), 3).Stream(1)
	buf := make([]peer.Descriptor, 0, 30)
	if avg := testing.AllocsPerRun(100, func() { buf = s.AppendSample(buf[:0], 30) }); avg > 0 {
		t.Errorf("AppendSample of 30 allocates %.1f times per call, want 0", avg)
	}
}

// TestStatStreamSeedStable pins seed stability: a fixed (oracle seed, key)
// pair yields a reproducible sample sequence across oracle instances, and
// distinct keys yield distinct streams.
func TestStatStreamSeedStable(t *testing.T) {
	draw := func(key int64) []peer.Descriptor {
		s := NewOracle(members(300), 13).Stream(key)
		var out []peer.Descriptor
		for i := 0; i < 40; i++ {
			out = s.AppendSample(out, 5)
		}
		return out
	}
	a, b := draw(9), draw(9)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pos %d: replay diverged (%v vs %v)", i, a[i], b[i])
		}
	}
	c := draw(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("streams with different keys drew identical sequences")
	}
}

// TestStatStreamConcurrentChurnHammer hammers AppendSample from 64
// goroutines — one private stream each — while the main goroutine churns
// the membership through Add/Remove. Run under -race this proves the
// sample path takes no lock and tears no snapshot; the assertions prove
// every draw was distinct and a member at some point of the churn history.
func TestStatStreamConcurrentChurnHammer(t *testing.T) {
	const base = 4096
	o := NewOracle(members(base), 99)
	valid := make(map[id.ID]bool, base+200)
	for _, d := range members(base) {
		valid[d.ID] = true
	}
	// Pre-declare the churn cohort so the validity set is closed before
	// the samplers start.
	for i := 0; i < 200; i++ {
		valid[id.ID(10000+i)] = true
	}

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		s := o.Stream(int64(g))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []peer.Descriptor
			for i := 0; i < 2000; i++ {
				buf = s.AppendSample(buf[:0], 10)
				seen := make(map[id.ID]struct{}, len(buf))
				for _, d := range buf {
					if !valid[d.ID] {
						errs <- "sampled a descriptor that was never a member"
						return
					}
					if _, dup := seen[d.ID]; dup {
						errs <- "duplicate descriptor within one sample"
						return
					}
					seen[d.ID] = struct{}{}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			o.Add(peer.Descriptor{ID: id.ID(10000 + i), Addr: peer.Addr(20000 + i)})
			o.Remove(id.ID(i%base + 1))
		}
		close(done)
	}()
	wg.Wait()
	<-done
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if got := o.Len(); got != base {
		t.Fatalf("Len = %d after 200 adds and 200 removes of %d, want %d", got, base, base)
	}
}
