// Package id implements the 64-bit node identifier arithmetic used by the
// bootstrapping service: base-2^b digit access, longest-common-prefix
// length, and the ring metric used for leaf sets.
//
// The paper simulates 64-bit IDs (Section 5): although DHT definitions often
// use 128 bits, the longest common prefix between any two IDs is far below
// 64 bits at any practical network size, so the extra bits play no role.
package id

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
)

// Bits is the width of a node identifier in bits.
const Bits = 64

// ID is a node identifier, a point on the ring [0, 2^64).
type ID uint64

// String formats the ID as a fixed-width hexadecimal string.
func (a ID) String() string {
	return fmt.Sprintf("%016x", uint64(a))
}

// Parse parses a hexadecimal ID produced by String.
func Parse(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("parse id %q: %w", s, err)
	}
	return ID(v), nil
}

// Digit returns the i-th digit of the ID in base 2^b, counting from the most
// significant digit (digit 0). b must divide into the 64-bit width; digits
// beyond the last full digit are zero.
func (a ID) Digit(i, b int) int {
	shift := Bits - (i+1)*b
	if shift < 0 {
		return 0
	}
	return int(uint64(a) >> uint(shift) & (1<<uint(b) - 1))
}

// NumDigits returns the number of base-2^b digits in an ID.
func NumDigits(b int) int { return Bits / b }

// CommonPrefixLen returns the length, in base-2^b digits, of the longest
// common prefix of a and b2.
func CommonPrefixLen(a, b2 ID, b int) int {
	x := uint64(a) ^ uint64(b2)
	if x == 0 {
		return NumDigits(b)
	}
	return bits.LeadingZeros64(x) / b
}

// Succ returns the clockwise (increasing, wrapping) distance from a to b2 on
// the ring. Succ(a, a) == 0.
func Succ(a, b2 ID) uint64 { return uint64(b2) - uint64(a) }

// Pred returns the counter-clockwise distance from a to b2 on the ring.
func Pred(a, b2 ID) uint64 { return uint64(a) - uint64(b2) }

// RingDistance returns the minimal distance between a and b2 along the ring,
// in either direction.
func RingDistance(a, b2 ID) uint64 {
	s := Succ(a, b2)
	p := Pred(a, b2)
	if s < p {
		return s
	}
	return p
}

// IsSuccessor reports whether b2 is a successor of a, i.e. closer to a in
// the increasing (clockwise) direction than in the decreasing one. The paper
// classifies every ID as either a successor or a predecessor of a given
// node; ties (the exact antipode) count as successors, and a node is not a
// successor of itself.
func IsSuccessor(a, b2 ID) bool {
	if a == b2 {
		return false
	}
	return Succ(a, b2) <= Pred(a, b2)
}

// CompareRing orders x and y by ring distance from the pivot a: it returns a
// negative number when x is strictly closer to a than y, zero when
// equidistant, and a positive number otherwise.
func CompareRing(a, x, y ID) int {
	dx, dy := RingDistance(a, x), RingDistance(a, y)
	switch {
	case dx < dy:
		return -1
	case dx > dy:
		return 1
	default:
		return 0
	}
}

// Generator produces unique random IDs from a deterministic source.
type Generator struct {
	rng  *rand.Rand
	seen map[ID]struct{}
}

// NewGenerator returns a Generator seeded with the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		rng:  rand.New(rand.NewSource(seed)),
		seen: make(map[ID]struct{}),
	}
}

// Reserve marks ids as already taken, so Next never returns any of them.
// Seeding a generator with a network's pre-existing identifiers makes
// later draws collision-free by construction — the churn/join harness
// relies on this instead of detecting duplicates after the fact.
func (g *Generator) Reserve(ids ...ID) {
	for _, v := range ids {
		g.seen[v] = struct{}{}
	}
}

// Next returns a fresh ID never returned by this generator before (and
// never colliding with a Reserved ID).
func (g *Generator) Next() ID {
	for {
		v := ID(g.rng.Uint64())
		if _, dup := g.seen[v]; dup {
			continue
		}
		g.seen[v] = struct{}{}
		return v
	}
}

// Unique returns n distinct random IDs drawn from a source seeded with seed.
func Unique(n int, seed int64) []ID {
	g := NewGenerator(seed)
	out := make([]ID, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// SortAscending sorts ids in increasing numeric order (ring order starting
// at zero).
func SortAscending(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
