package predictor

import (
	"math/bits"

	"thermalherd/internal/core"
)

// BTB is a set-associative branch target buffer. In the 3D configuration
// it applies the paper's target memoization: the low 16 target bits live
// on the top die with one memoization bit; targets whose upper 48 bits
// match the branch PC's complete on the top die, others stall the
// prediction pipeline one cycle to read the remaining die.
type BTB struct {
	// entries holds the sets one after another, ways entries each.
	entries []btbEntry
	ways    int
	setMask uint64
	setLg   int // log2 of the set count: the tag starts this far above the index

	lookups   uint64
	hits      uint64
	fullReads uint64 // hits requiring the lower three die (3D only)
	activity  core.DieActivity
	clock     uint64 // LRU clock, never reset
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64 // bigger = more recently used
}

// NewBTB builds a BTB with the given total entries and associativity.
func NewBTB(entries, ways int) *BTB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("predictor: BTB entries must divide evenly into ways")
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic("predictor: BTB set count must be a power of two")
	}
	return &BTB{entries: make([]btbEntry, entries), ways: ways, setMask: uint64(nsets - 1),
		setLg: bits.TrailingZeros(uint(nsets))}
}

// Reset invalidates every entry and zeroes the statistics and the LRU
// clock: the state NewBTB builds.
func (b *BTB) Reset() {
	clear(b.entries)
	b.lookups, b.hits, b.fullReads, b.clock = 0, 0, 0, 0
	b.activity = core.DieActivity{}
}

// set returns the entries of the set pc maps to, and pc's tag.
func (b *BTB) set(pc uint64) (set []btbEntry, tag uint64) {
	s, tag := b.index(pc)
	lo := int(s) * b.ways
	return b.entries[lo : lo+b.ways], tag
}

func (b *BTB) index(pc uint64) (set uint64, tag uint64) {
	line := pc >> 2
	return line & b.setMask, line >> b.setLg
}

// LookupResult describes one BTB probe.
type LookupResult struct {
	// Hit is true when the branch PC matched a BTB entry.
	Hit bool
	// Target is the predicted target on a hit.
	Target uint64
	// NeedsFullRead is true when, under the 3D target-memoization
	// organization, the target's upper 48 bits had to be fetched from
	// the lower three die (one front-end stall cycle).
	NeedsFullRead bool
}

// Lookup probes the BTB for the branch at pc. The memoization decision is
// recorded regardless of configuration; planar configurations simply
// ignore NeedsFullRead.
func (b *BTB) Lookup(pc uint64) LookupResult {
	b.lookups++
	b.clock++
	set, tag := b.set(pc)
	for w := range set {
		e := &set[w]
		if e.valid && e.tag == tag {
			b.hits++
			e.lru = b.clock
			full := core.TargetNeedsFullRead(pc, e.target)
			if full {
				b.fullReads++
				b.activity.RecordFull()
			} else {
				b.activity.RecordAccess(1)
			}
			return LookupResult{Hit: true, Target: e.target, NeedsFullRead: full}
		}
	}
	b.activity.RecordAccess(1) // a miss is detected on the top die
	return LookupResult{}
}

// Update installs or refreshes the target for the branch at pc.
func (b *BTB) Update(pc, target uint64) {
	set, tag := b.set(pc)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := range set {
		e := &set[w]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = b.clock
			return
		}
		if !e.valid {
			victim = w
			oldest = 0
		} else if e.lru < oldest {
			victim = w
			oldest = e.lru
		}
	}
	set[victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.clock}
}

// ResetStats zeroes probe statistics, preserving BTB contents.
func (b *BTB) ResetStats() {
	b.lookups, b.hits, b.fullReads = 0, 0, 0
	b.activity = core.DieActivity{}
}

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// FullReadRate returns the fraction of hits requiring the lower die.
func (b *BTB) FullReadRate() float64 {
	if b.hits == 0 {
		return 0
	}
	return float64(b.fullReads) / float64(b.hits)
}

// Activity returns the per-die access activity under target memoization.
func (b *BTB) Activity() core.DieActivity { return b.activity }

// Lookups returns the probe count.
func (b *BTB) Lookups() uint64 { return b.lookups }

// RAS is a fixed-depth return address stack.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS builds a return address stack of the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("predictor: RAS depth must be positive")
	}
	return &RAS{stack: make([]uint64, depth), depth: depth}
}

// Reset empties the stack, as NewRAS built it.
func (r *RAS) Reset() {
	clear(r.stack)
	r.top = 0
}

// Push records a call's return address; overflow wraps, overwriting the
// oldest entry.
func (r *RAS) Push(retAddr uint64) {
	r.stack[r.top%r.depth] = retAddr
	r.top++
}

// Pop predicts a return target; ok is false when the stack is empty.
func (r *RAS) Pop() (uint64, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%r.depth], true
}
