package newscast

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/testenv"
)

// en builds an entry; by convention a descriptor's Addr equals its ID unless
// a case is about which of two copies survives.
func en(i id.ID, ts int64, addr peer.Addr) entry {
	return entry{desc: peer.Descriptor{ID: i, Addr: addr}, ts: ts}
}

// seq is the entries lo..hi (inclusive, Addr = ID) at one timestamp,
// ascending by ID.
func seq(lo, hi id.ID, ts int64) []entry {
	var out []entry
	for i := lo; i <= hi; i++ {
		out = append(out, en(i, ts, peer.Addr(i)))
	}
	return out
}

// checkInvariant fails unless p's view is strictly ordered by fresher, holds
// each ID once, does not hold self and fits viewSize.
func checkInvariant(t *testing.T, p *Protocol) {
	t.Helper()
	if len(p.view) > p.viewSize {
		t.Fatalf("view holds %d entries, viewSize %d", len(p.view), p.viewSize)
	}
	for i, e := range p.view {
		if e.desc.ID == p.self.ID {
			t.Fatalf("view[%d] is self: %v", i, p.view)
		}
		if i > 0 && !fresher(p.view[i-1], e) {
			t.Fatalf("view[%d] out of order: %v", i, p.view)
		}
		for _, o := range p.view[:i] {
			if o.desc.ID == e.desc.ID {
				t.Fatalf("view[%d] repeats ID %s: %v", i, e.desc.ID, p.view)
			}
		}
	}
}

// runSteps builds a protocol from steps[0] (a bootstrap view: timestamps are
// ignored) and merges every later step into it, holding the view to
// mergeReference's, entry for entry, and to the invariant after each.
func runSteps(t *testing.T, self peer.Descriptor, viewSize int, steps [][]entry) *Protocol {
	t.Helper()
	boot := make([]peer.Descriptor, len(steps[0]))
	bootEntries := make([]entry, len(steps[0]))
	for i, e := range steps[0] {
		boot[i] = e.desc
		bootEntries[i] = entry{desc: e.desc}
	}
	p := New(self, boot, viewSize)
	ref := mergeReference(self.ID, viewSize, nil, bootEntries)
	for step := 0; ; step++ {
		if !slices.Equal(p.view, ref) {
			t.Fatalf("step %d: view diverges from the map-and-sort reference\n got %v\nwant %v", step, p.view, ref)
		}
		checkInvariant(t, p)
		if step+1 == len(steps) {
			return p
		}
		p.merge(steps[step+1])
		ref = mergeReference(self.ID, viewSize, ref, steps[step+1])
	}
}

// mergeCases names every input shape merge must get right. steps[0] is the
// bootstrap view handed to New; each later step is one received list. IDs
// stay below 63 or are their twins, timestamps within [-2, 5] and Addrs
// below 256 so that encodeSteps can hand the same cases to the fuzzer as its
// seeds.
var mergeCases = []struct {
	name     string
	self     id.ID
	viewSize int
	steps    [][]entry
	want     []entry
}{
	{
		name: "outgoing-shaped list: the sender at now, then its view", self: 1, viewSize: 4,
		steps: [][]entry{seq(2, 3, 0), {en(9, 5, 9), en(4, 3, 4), en(2, 2, 2), en(5, 1, 5)}},
		want:  []entry{en(9, 5, 9), en(4, 3, 4), en(2, 2, 2), en(5, 1, 5)},
	},
	{
		name: "unsorted received", self: 1, viewSize: 4,
		steps: [][]entry{seq(2, 2, 0), {en(5, 1, 5), en(4, 3, 4), en(9, 5, 9), en(3, 3, 3)}},
		want:  []entry{en(9, 5, 9), en(3, 3, 3), en(4, 3, 4), en(5, 1, 5)},
	},
	{
		name: "ID repeated in received, unequal ts: the freshest wins", self: 1, viewSize: 4,
		steps: [][]entry{nil, {en(2, 1, 102), en(2, 4, 2), en(2, 3, 103)}},
		want:  []entry{en(2, 4, 2)},
	},
	{
		name: "ID repeated in received, equal ts: the first wins", self: 1, viewSize: 4,
		steps: [][]entry{nil, {en(2, 4, 102), en(3, 4, 3), en(2, 4, 2)}},
		want:  []entry{en(2, 4, 102), en(3, 4, 3)},
	},
	{
		name: "equal (ts, ID) on both sides, different Addr: the view's wins", self: 1, viewSize: 4,
		steps: [][]entry{nil, {en(2, 3, 2)}, {en(2, 3, 102), en(3, 3, 3)}},
		want:  []entry{en(2, 3, 2), en(3, 3, 3)},
	},
	{
		name: "received copy strictly fresher: it replaces the view's", self: 1, viewSize: 4,
		steps: [][]entry{nil, {en(2, 1, 2), en(3, 2, 3)}, {en(2, 4, 102)}},
		want:  []entry{en(2, 4, 102), en(3, 2, 3)},
	},
	{
		name: "received copy older: the view's stays", self: 1, viewSize: 4,
		steps: [][]entry{nil, {en(2, 4, 2)}, {en(2, 1, 102), en(3, 2, 3)}},
		want:  []entry{en(2, 4, 2), en(3, 2, 3)},
	},
	{
		name: "self first, in the middle and last: dropped, takes no slot", self: 1, viewSize: 3,
		steps: [][]entry{nil, {en(1, 5, 1), en(2, 4, 2), en(1, 4, 1), en(3, 3, 3), en(4, 2, 4), en(1, 0, 1)}},
		want:  []entry{en(2, 4, 2), en(3, 3, 3), en(4, 2, 4)},
	},
	{
		name: "empty received: the view stands", self: 1, viewSize: 4,
		steps: [][]entry{seq(2, 3, 0), nil},
		want:  seq(2, 3, 0),
	},
	{
		name: "empty bootstrap, empty received: the view stays empty", self: 1, viewSize: 4,
		steps: [][]entry{nil, nil},
	},
	{
		name: "one received entry", self: 1, viewSize: 4,
		steps: [][]entry{seq(2, 2, 0), {en(3, 1, 3)}},
		want:  []entry{en(3, 1, 3), en(2, 0, 2)},
	},
	{
		name: "received longer than viewSize+1: the freshest stay, ties by ID", self: 1, viewSize: 2,
		steps: [][]entry{seq(2, 2, 0), {en(3, 1, 3), en(4, 1, 4), en(5, 1, 5), en(6, 2, 6), en(7, 0, 7)}},
		want:  []entry{en(6, 2, 6), en(3, 1, 3)},
	},
	{
		name: "viewSize 1", self: 1, viewSize: 1,
		steps: [][]entry{{en(5, 0, 5), en(3, 0, 3)}, {en(1, 5, 1), en(4, 0, 4)}, {en(7, 1, 7)}},
		want:  []entry{en(7, 1, 7)},
	},
	{
		name: "bootstrap view repeats an ID and names self: first copy kept", self: 1, viewSize: 4,
		steps: [][]entry{{en(2, 0, 2), en(3, 0, 3), en(2, 0, 102), en(1, 0, 1)}},
		want:  []entry{en(2, 0, 2), en(3, 0, 3)},
	},
	{
		name: "default view size overflowed by one descending list", self: 60, viewSize: DefaultViewSize,
		steps: [][]entry{seq(1, 5, 0), reversed(seq(10, 50, 1))},
		want:  seq(10, 39, 1),
	},
	{
		name: "outgoing-shaped lists with ties at the sender's now, read in place", self: 1, viewSize: 5,
		steps: [][]entry{seq(2, 4, 0),
			{en(3, 2, 103), en(6, 2, 6), en(7, 2, 7), en(2, 1, 102), en(4, 0, 104)},
			{en(9, 3, 9), en(6, 2, 106), en(5, 1, 5), en(1, 0, 1)}},
		want: []entry{en(9, 3, 9), en(3, 2, 103), en(6, 2, 6), en(7, 2, 7), en(2, 1, 102)},
	},
	{
		name: "out of order with repeated IDs and self: sorted in a copy", self: 1, viewSize: 4,
		steps: [][]entry{seq(2, 3, 0),
			{en(4, 1, 4), en(1, 5, 1), en(3, 2, 103), en(4, 3, 104), en(2, -1, 102), en(3, 2, 3), en(5, 0, 5)}},
		want: []entry{en(4, 3, 104), en(3, 2, 103), en(2, 0, 2), en(5, 0, 5)},
	},
	{
		name: "IDs sharing a filter bit: each kept once, none mistaken for another", self: 1, viewSize: 6,
		steps: [][]entry{{en(5, 0, 5), en(twin(5, 1), 0, 51)},
			{en(twin(5, 2), 3, 52), en(5, 2, 105), en(twin(5, 1), 1, 151), en(twin(5, 3), 1, 53), en(twin(5, 2), 0, 152)},
			{en(twin(5, 3), 4, 153), en(twin(5, 1), 2, 251), en(7, 2, 7), en(twin(7, 1), 1, 71), en(5, 1, 205)}},
		want: []entry{en(twin(5, 3), 4, 153), en(twin(5, 2), 3, 52), en(5, 2, 105), en(7, 2, 7), en(twin(5, 1), 2, 251), en(twin(7, 1), 1, 71)},
	},
}

// fuzzIDs decodes the ID byte of an encoded entry: its low six bits pick a
// base ID and its top two bits one of the base's twins — the base itself, or
// the first, second or third ID above 63 that merge's filter maps to the
// same bit as the base — so the fuzzer meets filter collisions as readily
// as repeated IDs.
var fuzzIDs = func() (t [256]id.ID) {
	for b := range t {
		base := id.ID(b & 0x3F)
		t[b] = base
		for k, x := b>>6, id.ID(64); k > 0; x++ {
			if idBit(x) == idBit(base) {
				t[b], k = x, k-1
			}
		}
	}
	return t
}()

// twin is the k-th filter twin of base (0 <= k <= 3, base < 64).
func twin(base id.ID, k int) id.ID { return fuzzIDs[int(base)|k<<6] }

func reversed(es []entry) []entry {
	slices.Reverse(es)
	return es
}

// TestMergeCases runs the named shapes without -fuzz: each against its
// stated outcome, and step by step against mergeReference. A case that
// outgrew the byte encoding would seed the fuzzer with something else, so
// each must also come back from it unchanged.
func TestMergeCases(t *testing.T) {
	for _, c := range mergeCases {
		t.Run(c.name, func(t *testing.T) {
			p := runSteps(t, peer.Descriptor{ID: c.self, Addr: peer.Addr(c.self)}, c.viewSize, c.steps)
			if !slices.Equal(p.view, c.want) {
				t.Errorf("final view\n got %v\nwant %v", p.view, c.want)
			}
			seed := decodeSteps(encodeSteps(c.steps))
			if !slices.EqualFunc(seed, c.steps, func(a, b []entry) bool { return slices.Equal(a, b) }) {
				t.Errorf("steps do not round-trip the fuzz encoding\n got %v\nwant %v", seed, c.steps)
			}
		})
	}
}

// TestMergeCasesCoverBothPaths keeps the seeds honest about what they
// drive: received lists merge reads in place and lists it must sort first,
// and, within one list, distinct IDs that share a filter bit.
func TestMergeCasesCoverBothPaths(t *testing.T) {
	var inPlace, sorted, collide bool
	for _, c := range mergeCases {
		for _, r := range c.steps[1:] {
			if len(r) > 1 {
				inPlace = inPlace || inOrder(r)
				sorted = sorted || !inOrder(r)
			}
			for i, a := range r {
				for _, b := range r[:i] {
					collide = collide || (a.desc.ID != b.desc.ID && idBit(a.desc.ID) == idBit(b.desc.ID))
				}
			}
		}
	}
	if !inPlace || !sorted || !collide {
		t.Errorf("mergeCases drive: read in place %v, sorted copy %v, filter collision %v; want all three", inPlace, sorted, collide)
	}
}

// TestMergeLeavesReceivedAlone holds merge to the ownership rule on both of
// its paths: it does not write to the received list, and the view it builds
// does not change when the list is overwritten afterwards, as a recycled
// message's arena is.
func TestMergeLeavesReceivedAlone(t *testing.T) {
	for _, received := range [][]entry{
		{en(9, 5, 9), en(4, 3, 4), en(2, 2, 2), en(5, 1, 5)},                // in order: read in place
		{en(5, 1, 5), en(1, 4, 1), en(9, 5, 9), en(4, 3, 4), en(9, 2, 109)}, // sorted in a copy
	} {
		p := New(peer.Descriptor{ID: 1, Addr: 1}, []peer.Descriptor{{ID: 3, Addr: 3}}, 4)
		orig := slices.Clone(received)
		p.merge(received)
		if !slices.Equal(received, orig) {
			t.Errorf("merge wrote to the received list\n got %v\nwant %v", received, orig)
		}
		view := slices.Clone(p.view)
		for i := range received {
			received[i] = en(7, 9, 107)
		}
		if !slices.Equal(p.view, view) {
			t.Errorf("overwriting the received list changed the view\n got %v\nwant %v", p.view, view)
		}
		p.merge(nil)
		if !slices.Equal(p.view, view) {
			t.Errorf("merge buffers alias the received list: an empty merge left\n %v\nwant %v", p.view, view)
		}
	}
}

// stepBreak separates two steps in the fuzzer's byte encoding; any other
// byte opens a three-byte entry: ID (through fuzzIDs), ts (low three bits,
// offset to [-2, 5]), Addr. Few IDs and fewer timestamps make repeats and
// ties the common case rather than the lucky one.
const stepBreak = 0xFF

func decodeSteps(data []byte) [][]entry {
	steps := [][]entry{nil}
	for len(data) > 0 {
		if data[0] == stepBreak {
			steps = append(steps, nil)
			data = data[1:]
			continue
		}
		if len(data) < 3 {
			break
		}
		last := &steps[len(steps)-1]
		*last = append(*last, en(fuzzIDs[data[0]], int64(data[1]&7)-2, peer.Addr(data[2])))
		data = data[3:]
	}
	return steps
}

func encodeSteps(steps [][]entry) []byte {
	var out []byte
	for i, s := range steps {
		if i > 0 {
			out = append(out, stepBreak)
		}
		for _, e := range s {
			out = append(out, byte(slices.Index(fuzzIDs[:], e.desc.ID)), byte(e.ts+2), byte(e.desc.Addr))
		}
	}
	return out
}

// FuzzMergeMatchesReference holds merge to mergeReference over arbitrary
// sequences of received lists — unsorted, with repeated IDs, equal (ts, ID)
// pairs under different Addrs, self entries anywhere, any length against
// view sizes 1..32 — starting from a view built the only way one can be:
// through New and earlier merges.
func FuzzMergeMatchesReference(f *testing.F) {
	for _, c := range mergeCases {
		f.Add(encodeSteps(c.steps), uint8(c.self), uint8(c.viewSize-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, selfRaw, viewSizeRaw uint8) {
		self := peer.Descriptor{ID: id.ID(selfRaw & 0x3F), Addr: peer.Addr(selfRaw)}
		runSteps(t, self, 1+int(viewSizeRaw%32), decodeSteps(data))
	})
}

func TestNewDropsRepeatedBootstrapIDs(t *testing.T) {
	boot := []peer.Descriptor{{ID: 7, Addr: 7}, {ID: 3, Addr: 3}, {ID: 7, Addr: 107}, {ID: 3, Addr: 103}, {ID: 5, Addr: 5}}
	p := New(peer.Descriptor{ID: 1, Addr: 1}, boot, 10)
	want := []peer.Descriptor{{ID: 3, Addr: 3}, {ID: 5, Addr: 5}, {ID: 7, Addr: 7}}
	if got := p.View(); !slices.Equal(got, want) {
		t.Errorf("View() = %v, want %v (each ID once, its first copy)", got, want)
	}
	if got := NewSampler(p, 1).Sample(10); len(got) != 3 {
		t.Errorf("Sample(10) returned %d descriptors from 3 distinct bootstrap IDs: %v", len(got), got)
	}
}

// lastSent is a proto.Context that keeps the last message handed to Send.
type lastSent struct {
	self peer.Addr
	now  int64
	rng  *rand.Rand
	msg  proto.Message
}

func (c *lastSent) Self() peer.Addr                   { return c.self }
func (c *lastSent) Now() int64                        { return c.now }
func (c *lastSent) Rand() *rand.Rand                  { return c.rng }
func (c *lastSent) Send(_ peer.Addr, m proto.Message) { c.msg = m }

// TestMergeAllocs pins what the sampling layer costs the heap in steady
// state: nothing, for merge alone and for a full exchange. The harness
// retires each message once its Handle returns, as every engine does, so
// both outgoing lists come from the pool.
func TestMergeAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("the race detector allocates on its own account")
	}
	boot := make([]peer.Descriptor, 0, 40)
	for _, e := range seq(10, 49, 0) {
		boot = append(boot, e.desc)
	}
	a := New(peer.Descriptor{ID: 1, Addr: 1}, boot, DefaultViewSize)
	b := New(peer.Descriptor{ID: 2, Addr: 2}, boot, DefaultViewSize)
	ca := &lastSent{self: 1, rng: rand.New(rand.NewSource(1))}
	cb := &lastSent{self: 2, rng: rand.New(rand.NewSource(2))}
	a.Init(ca)
	b.Init(cb)
	exchange := func() {
		ca.now++
		cb.now++
		a.Tick(ca)
		b.Handle(cb, ca.self, ca.msg)
		ca.msg.(proto.Recyclable).Recycle()
		a.Handle(ca, cb.self, cb.msg)
		cb.msg.(proto.Recyclable).Recycle()
	}
	for i := 0; i < 3; i++ { // the pooled merge buffers and message arenas reach full size
		exchange()
	}

	sent := a.outgoing(ca.now+1, false)
	defer sent.Recycle()
	if avg := testing.AllocsPerRun(100, func() { b.merge(sent.Entries) }); avg != 0 {
		t.Errorf("merge: %v allocs/op, want 0 (the list is read in place, the next view built in a pooled array)", avg)
	}
	shuffled := slices.Clone(sent.Entries)
	slices.Reverse(shuffled)
	if avg := testing.AllocsPerRun(100, func() { b.merge(shuffled) }); avg != 0 {
		t.Errorf("merge of an unsorted list: %v allocs/op, want 0 (the sorted copy lives in the pooled buffers)", avg)
	}
	if avg := testing.AllocsPerRun(100, exchange); avg != 0 {
		t.Errorf("Tick + Handle(request) + Handle(answer): %v allocs/op, want 0: "+
			"both messages come from the pool and return to it", avg)
	}
}
