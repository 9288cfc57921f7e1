// Package core implements the bootstrapping service itself — the paper's
// primary contribution (Section 4). The protocol simultaneously builds, at
// every participating node and from scratch, the two structures that
// prefix-based routing substrates (Pastry, Kademlia, Tapestry, Bamboo) are
// made of:
//
//   - a leaf set: the c/2 nearest successors and c/2 nearest predecessors
//     of the node in the ring of IDs, evolved T-Man style;
//   - a prefix table: up to k descriptors for every pair (i, j), where i is
//     the longest-common-prefix length (in base-2^b digits) with the node's
//     own ID and j is the first differing digit.
//
// The two structures mutually boost each other: the ring-building gossip
// fills the prefix table as a side effect, while the half-built prefix
// table provides long-range shortcuts that route stragglers to their final
// ring neighbourhood.
package core

import (
	"errors"
	"fmt"

	"repro/internal/id"
	"repro/internal/peer"
)

// Default protocol parameters, matching the paper's simulations (Section 5).
const (
	// DefaultB is the number of bits per digit (digits in base 2^b).
	DefaultB = 4
	// DefaultK is the number of entries kept per (prefix length, digit)
	// pair. The paper keeps k > 1 even for substrates that need a single
	// entry, because it enables proximity optimisation of routes; here
	// the later entries are what pastry's next-hop rule falls back to
	// when the first one is dead.
	DefaultK = 3
	// DefaultC is the leaf set size.
	DefaultC = 20
	// DefaultCR is the number of fresh random samples mixed into every
	// outgoing message. These samples are "free": the sampling layer
	// runs anyway.
	DefaultCR = 30
	// DefaultDelta is the communication period in virtual time units.
	DefaultDelta = 10
)

// MaxK is the largest prefix-table slot capacity: a slot's fill count is
// one byte.
const MaxK = 255

// Config holds the bootstrap protocol parameters (paper Section 4, last
// paragraph).
type Config struct {
	// B is the number of bits per digit; the prefix table has up to
	// 64/B rows of 2^B columns.
	B int
	// K is the maximum number of entries per prefix-table slot.
	K int
	// C is the leaf set size; the leaf set keeps C/2 successors and C/2
	// predecessors.
	C int
	// CR is the number of random samples requested from the sampling
	// service for each outgoing message.
	CR int
	// Delta is the gossip period in virtual time units.
	Delta int64
	// DisablePrefixFeedback turns off the feedback of the prefix table
	// into message construction, degrading the protocol to pure T-Man
	// ring building with passive table filling. This is the ablation
	// for the paper's "the two components mutually boost each other"
	// design claim; it is never enabled in the paper's own experiments.
	DisablePrefixFeedback bool
	// EvictAfterMisses enables a lightweight failure detector — an
	// extension beyond the paper, whose protocol keeps descriptors of
	// departed nodes forever: after a peer fails to answer this many
	// consecutive requests it is evicted from the leaf set and prefix
	// table. Zero disables detection (the paper's behaviour). Under
	// message loss small values cause false positives; the evicted
	// peer is simply relearned through gossip.
	EvictAfterMisses int
	// Arena, when non-nil, supplies the descriptor blocks backing the
	// node's leaf set and prefix-table slots. The engine or harness that
	// builds the network owns the arena (one per network); core only
	// borrows blocks and returns them through Node.Release when the node
	// is permanently retired. Nil falls back to plain heap allocation —
	// correct, just without the pooling that keeps a churned network's
	// heap compact.
	Arena *peer.DescriptorArena
}

// DefaultConfig returns the parameter set used throughout the paper's
// evaluation: b=4, k=3, c=20, cr=30.
func DefaultConfig() Config {
	return Config{B: DefaultB, K: DefaultK, C: DefaultC, CR: DefaultCR, Delta: DefaultDelta}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.B < 1 || c.B > 8:
		return fmt.Errorf("config: B = %d out of range [1, 8]", c.B)
	case id.Bits%c.B != 0:
		return fmt.Errorf("config: B = %d must divide %d", c.B, id.Bits)
	case c.K < 1 || c.K > MaxK:
		return fmt.Errorf("config: K = %d out of range [1, %d]", c.K, MaxK)
	case c.C < 2:
		return errors.New("config: C must be at least 2")
	case c.C%2 != 0:
		return fmt.Errorf("config: C = %d must be even (C/2 successors and predecessors)", c.C)
	case c.CR < 0:
		return errors.New("config: CR must not be negative")
	case c.Delta < 1:
		return errors.New("config: Delta must be positive")
	case c.EvictAfterMisses < 0:
		return errors.New("config: EvictAfterMisses must not be negative")
	}
	return nil
}

// NumRows returns the number of prefix-table rows implied by B.
func (c Config) NumRows() int { return id.NumDigits(c.B) }

// NumCols returns the number of prefix-table columns (digit values) implied
// by B.
func (c Config) NumCols() int { return 1 << uint(c.B) }

// TableCapacity returns the maximum possible number of prefix-table
// entries, which also bounds the prefix part of a message.
func (c Config) TableCapacity() int { return c.NumRows() * c.NumCols() * c.K }
