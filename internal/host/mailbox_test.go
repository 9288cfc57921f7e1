package host

import (
	"testing"

	"repro/internal/peer"
)

// TestMailboxRules steps one mailbox through the interleavings its rules
// exist for, deterministically: a receive that has not yet topped the
// channel up, and a producer whose send failed before the host emptied the
// channel.
func TestMailboxRules(t *testing.T) {
	const bound = mailboxChan + 8
	m := newMailbox(bound)
	next, want := 0, 0
	put := func() bool {
		next++
		return m.put(command{from: peer.Addr(next - 1)})
	}
	// recv is the host loop's receive; topUp follows it unless a test
	// stands in the window between the two.
	recv := func(topUp bool) {
		t.Helper()
		c := <-m.ch
		if int(c.from) != want {
			t.Fatalf("received arrival %d, want %d", c.from, want)
		}
		want++
		if topUp {
			m.topUp()
		}
	}
	if m.spill != nil {
		t.Fatal("a new mailbox preallocated its spill")
	}
	for i := 0; i < mailboxChan+1; i++ {
		if !put() {
			t.Fatalf("arrival %d refused below the bound", i)
		}
	}
	if got := len(m.spill); got != 4 {
		t.Errorf("one spilled arrival grew the spill to %d slots, want 4", got)
	}

	// FIFO: in the window between a receive and its top-up the channel has
	// room, but an arrival must still queue behind the spilled one.
	recv(false)
	put()
	for len(m.ch) > 0 {
		recv(true)
	}

	// No arrival stranded: a producer's send fails on a full channel, the
	// host then empties it, and only then does the producer spill. The
	// producer's own top-up must hand the arrival to the channel.
	for len(m.ch) < cap(m.ch) {
		put()
	}
	for len(m.ch) > 0 {
		recv(true)
	}
	next++
	if !m.spillPut(command{from: peer.Addr(next - 1)}) {
		t.Fatal("spill refused an arrival into an empty mailbox")
	}
	if len(m.ch) != 1 || m.spilled.Load() != 0 {
		t.Fatalf("after the late spill: %d in the channel and %d spilled, want 1 and 0", len(m.ch), m.spilled.Load())
	}
	recv(true)

	// The bound is exact, also while a receive has not topped up yet.
	for i := 0; i < bound; i++ {
		if !put() {
			t.Fatalf("arrival %d of %d refused", i, bound)
		}
	}
	if put() {
		t.Fatal("an arrival past the bound was kept")
	}
	next-- // refused, so never received
	recv(false)
	if !put() {
		t.Fatal("the slot a receive freed was refused")
	}
	if put() {
		t.Fatal("an arrival past the bound was kept after a receive")
	}
	next--
	if got := len(m.spill); got != bound-mailboxChan {
		t.Errorf("spill grew to %d slots, want its limit %d", got, bound-mailboxChan)
	}
	for len(m.ch) > 0 {
		recv(true)
	}
	if want != next {
		t.Errorf("received %d arrivals of %d", want, next)
	}

	// A bound the channel covers is the channel alone.
	small := newMailbox(mailboxChan / 2)
	for i := 0; i < mailboxChan/2; i++ {
		small.put(command{})
	}
	if small.put(command{}) || small.spill != nil || cap(small.ch) != mailboxChan/2 {
		t.Errorf("a bound of %d: cap %d, spill %v", mailboxChan/2, cap(small.ch), small.spill)
	}
}
