package peer

import "sync"

// DescriptorArena is a chunked free-list allocator for fixed-capacity
// descriptor blocks — the storage plane behind every node's leaf set and
// prefix-table slots in a simulated network. At the paper's scales (2^14-
// 2^20 nodes) the per-node routing state is millions of tiny []Descriptor
// slices; allocating each from the general heap costs an object header and
// a size-class rounding per slice and, worse, churn turns the node
// population over so the heap ends up fragmented with short-lived slot
// arrays. The arena carves blocks out of large chunks instead and recycles
// released blocks by exact capacity, so a churned node's storage is handed
// whole to its replacement.
//
// Ownership rules (the "engine owns, core borrows" contract): the engine or
// harness that builds a network owns one arena for that network's lifetime
// and passes it to core via Config.Arena. Core structures draw blocks with
// Get and must return each block exactly once, via Put, when the owning
// node is permanently retired (simnet churn replaces nodes; livenet
// kill/respawn keeps protocol state, so it must NOT release). A released
// block must never be used again: the next Get of that capacity may hand it
// to another node, and the arena zeroes returned blocks so stale
// descriptors cannot leak across incarnations.
//
// A nil *DescriptorArena is valid and falls back to plain heap allocation
// (Get makes a fresh slice, Put discards), so code paths without an
// engine-owned arena — unit tests, the chord overlay — need no
// special casing.
//
// Get and Put lock a mutex; both sit on cold paths (node construction,
// first fill of a prefix slot, churn) so a single lock is cheaper than
// sharding, even under livenet's concurrent host startup.
type DescriptorArena struct {
	mu          sync.Mutex
	classes     map[int]*arenaClass
	outstanding int
}

// arenaClass is the per-capacity state: the tail of the chunk currently
// being carved and the stack of released blocks awaiting reuse.
type arenaClass struct {
	chunk []Descriptor
	free  [][]Descriptor
}

// arenaChunkBlocks is how many blocks each freshly allocated chunk holds.
const arenaChunkBlocks = 256

// NewDescriptorArena returns an empty arena.
func NewDescriptorArena() *DescriptorArena {
	return &DescriptorArena{classes: make(map[int]*arenaClass)}
}

// Get returns an empty block with exactly the given capacity, reusing a
// released block when one is available. On a nil arena it allocates from
// the heap.
func (a *DescriptorArena) Get(capacity int) []Descriptor {
	if capacity <= 0 {
		return nil
	}
	if a == nil {
		return make([]Descriptor, 0, capacity)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.classes[capacity]
	if c == nil {
		c = &arenaClass{}
		a.classes[capacity] = c
	}
	a.outstanding++
	if n := len(c.free); n > 0 {
		blk := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return blk
	}
	if len(c.chunk) < capacity {
		c.chunk = make([]Descriptor, capacity*arenaChunkBlocks)
	}
	blk := c.chunk[0:0:capacity]
	c.chunk = c.chunk[capacity:]
	return blk
}

// Put returns a block obtained from Get. The block is zeroed and recycled
// into the free list for its capacity; the caller must not touch it again.
// On a nil arena Put is a no-op (the block is simply left to the GC).
func (a *DescriptorArena) Put(blk []Descriptor) {
	if a == nil || cap(blk) == 0 {
		return
	}
	full := blk[0:cap(blk)]
	clear(full)
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.classes[cap(blk)]
	if c == nil {
		// A block the arena never issued (plain heap slice handed back by
		// mixed-construction code): adopt it rather than reject it.
		c = &arenaClass{}
		a.classes[cap(blk)] = c
	}
	a.outstanding--
	c.free = append(c.free, full[:0])
}

// Outstanding returns the number of blocks issued and not yet returned —
// the lifecycle tests' double-free and leak detector.
func (a *DescriptorArena) Outstanding() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.outstanding
}
