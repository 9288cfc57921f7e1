package newscast

import (
	"math/rand"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
)

// Sampler adapts a co-located Protocol's current view into a
// sampling.Service for higher layers on the same
// node — the decentralized alternative to drawing from the global-knowledge
// oracle, matching the paper's deployed architecture where the bootstrap
// layer consumes whatever the gossip layer's view holds.
//
// It carries its own deterministically seeded RNG rather than borrowing
// the protocol's engine RNG: higher layers sample outside the gossip
// callbacks, and consuming the protocol's RNG there would perturb the
// gossip layer's seeded trace. Like a sampling.Stream it is a
// single-caller handle — both execution engines serialise all of one
// node's protocol callbacks, which is exactly the safety the view read
// relies on. AppendSample draws the same sequence as Sample.
type Sampler struct {
	p   *Protocol
	rng *rand.Rand
}

var _ sampling.Service = (*Sampler)(nil)

// NewSampler returns a sampler over p's live view, seeded deterministically.
func NewSampler(p *Protocol, seed int64) *Sampler {
	return &Sampler{p: p, rng: id.NewRand(seed)}
}

// Sample returns up to n distinct random descriptors from the protocol's
// current view.
func (s *Sampler) Sample(n int) []peer.Descriptor {
	return s.AppendSample(nil, n)
}

// AppendSample appends up to n distinct random descriptors from the
// protocol's current view to dst, allocating nothing beyond what dst needs
// while the view holds at most 64 entries.
func (s *Sampler) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	view := s.p.view
	if n > len(view) {
		n = len(view)
	}
	if n <= 0 {
		return dst
	}
	// The indices live on the stack for any view up to 64 entries (the
	// default is 30). stack must not flow into anything that outlives the
	// call, or it escapes to the heap: `go build -gcflags=-m` would read
	// "moved to heap: stack".
	var stack [64]int
	idx := stack[:]
	if len(view) > len(stack) {
		idx = make([]int, len(view))
	}
	idx = idx[:len(view)]
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher-Yates: views are small (~30 entries), so shuffling
	// the first n positions beats rejection sampling's duplicate scans.
	for i := 0; i < n; i++ {
		j := i + s.rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		dst = append(dst, view[idx[i]].desc)
	}
	return dst
}
