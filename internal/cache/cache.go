// Package cache implements the memory-hierarchy substrate of the
// simulated machine: set-associative write-back caches with LRU
// replacement, translation lookaside buffers, and a composed
// L1/L2/DRAM hierarchy with the Table 1 parameters.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// Name appears in statistics.
	Name string
	// Size is the capacity in bytes.
	Size int
	// Ways is the set associativity.
	Ways int
	// LineSize is the block size in bytes.
	LineSize int
	// Latency is the hit latency in cycles.
	Latency int
}

// Cache is a set-associative cache model. It tracks tags only (the
// simulator carries data values in the instruction stream), which is
// sufficient for timing and activity modelling.
type Cache struct {
	cfg Config
	// sets[i] stays nil until set i first misses: a short simulation
	// touches a small fraction of a 4 MB L2's sets. Lines come from
	// chunks of chunkSets sets' worth; live lists the sets holding
	// lines, in the order they got them, so Reset takes time in
	// proportion to what was touched, and keeps the chunks for reuse.
	sets    [][]line
	live    []int32
	chunks  [][]line
	setMask uint64
	setLg   int // log2 of the set count: the tag starts this far above the index
	lineLg  int

	accesses   uint64
	misses     uint64
	writebacks uint64
	clock      uint64
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// New builds a cache from cfg. Size must be Ways × power-of-two sets ×
// LineSize.
func New(cfg Config) *Cache {
	if cfg.Size <= 0 || cfg.Ways <= 0 || cfg.LineSize <= 0 {
		panic(fmt.Sprintf("cache %s: non-positive geometry", cfg.Name))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size must be a power of two", cfg.Name))
	}
	nsets := cfg.Size / (cfg.Ways * cfg.LineSize)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d must be a positive power of two", cfg.Name, nsets))
	}
	return &Cache{
		cfg:     cfg,
		sets:    make([][]line, nsets),
		setMask: uint64(nsets - 1),
		setLg:   bits.TrailingZeros(uint(nsets)),
		lineLg:  bits.TrailingZeros(uint(cfg.LineSize)),
	}
}

// Reset empties the cache and zeroes its statistics, returning it to
// the state New built. It keeps the storage of the sets the cache has
// touched for reuse, so it allocates nothing.
func (c *Cache) Reset() {
	for _, s := range c.live {
		c.sets[s] = nil
	}
	c.live = c.live[:0]
	c.accesses, c.misses, c.writebacks, c.clock = 0, 0, 0, 0
}

// chunkSets is how many sets' lines one chunk holds. Lines come in
// chunks rather than one growing slice so that filling a cold cache
// never copies lines, and a reset cache keeps at most one partly used
// chunk more than it needed.
const chunkSets = 32

// allocSet gives set s its Ways empty lines and returns them.
func (c *Cache) allocSet(s uint64) []line {
	k, w := len(c.live), c.cfg.Ways
	if k/chunkSets == len(c.chunks) {
		c.chunks = append(c.chunks, make([]line, chunkSets*w))
	}
	lo := k % chunkSets * w
	lines := c.chunks[k/chunkSets][lo : lo+w : lo+w]
	clear(lines)
	c.live = append(c.live, int32(s))
	c.sets[s] = lines
	return lines
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set, tag uint64) {
	blk := addr >> c.lineLg
	return blk & c.setMask, blk >> c.setLg
}

// Access looks up addr, allocating on miss (write-allocate). It returns
// whether the access hit and whether a dirty line was written back.
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.clock++
	c.accesses++
	set, tag := c.index(addr)
	lines := c.sets[set]
	for w := range lines {
		l := &lines[w]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			return true, false
		}
	}
	c.misses++
	if lines == nil {
		lines = c.allocSet(set)
	}
	// Allocate: choose invalid first, else LRU.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := range lines {
		if !lines[w].valid {
			victim = w
			oldest = 0
			break
		}
		if lines[w].lru < oldest {
			victim = w
			oldest = lines[w].lru
		}
	}
	writeback = lines[victim].valid && lines[victim].dirty
	if writeback {
		c.writebacks++
	}
	lines[victim] = line{valid: true, dirty: write, tag: tag, lru: c.clock}
	return false, writeback
}

// Probe reports whether addr is resident without updating state. A set
// that has never missed holds nothing.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for w := range c.sets[set] {
		if c.sets[set][w].valid && c.sets[set][w].tag == tag {
			return true
		}
	}
	return false
}

// Stats returns (accesses, misses, writebacks).
func (c *Cache) Stats() (accesses, misses, writebacks uint64) {
	return c.accesses, c.misses, c.writebacks
}

// ResetStats zeroes the access statistics while preserving cache
// contents — used to discard warm-up effects before measurement.
func (c *Cache) ResetStats() {
	c.accesses, c.misses, c.writebacks = 0, 0, 0
}

// MissRate returns misses/accesses, or 0 when idle.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// TLB is a set-associative translation lookaside buffer over 4KB pages.
type TLB struct {
	cache *Cache
}

// NewTLB builds a TLB with the given entries and associativity.
func NewTLB(name string, entries, ways int) *TLB {
	// Model the TLB as a cache of 4KB "lines" indexed by page number:
	// one entry per page.
	return &TLB{cache: New(Config{
		Name:     name,
		Size:     entries * 4096,
		Ways:     ways,
		LineSize: 4096,
	})}
}

// Access translates addr's page; returns whether it hit.
func (t *TLB) Access(addr uint64) bool {
	hit, _ := t.cache.Access(addr, false)
	return hit
}

// MissRate returns the TLB miss rate.
func (t *TLB) MissRate() float64 { return t.cache.MissRate() }

// ResetStats zeroes statistics, preserving TLB contents.
func (t *TLB) ResetStats() { t.cache.ResetStats() }

// Reset empties the TLB and zeroes its statistics, as NewTLB left it.
func (t *TLB) Reset() { t.cache.Reset() }

// Stats returns (accesses, misses).
func (t *TLB) Stats() (accesses, misses uint64) {
	a, m, _ := t.cache.Stats()
	return a, m
}

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	}
	return "?"
}

// Hierarchy composes an L1, the shared L2, and DRAM into a timing model.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// L1Latency, L2Latency are hit latencies in cycles; MemCycles is
	// the DRAM access latency in cycles (frequency-dependent: the
	// paper's Fast/3D configurations see more cycles for the same
	// DRAM nanoseconds).
	L1Latency, L2Latency, MemCycles int

	served [3]uint64
}

// NewHierarchy wires an L1 in front of l2 with the given latencies.
func NewHierarchy(l1, l2 *Cache, l1Lat, l2Lat, memCycles int) *Hierarchy {
	return &Hierarchy{L1: l1, L2: l2, L1Latency: l1Lat, L2Latency: l2Lat, MemCycles: memCycles}
}

// Reset empties both caches, zeroes the statistics and sets the
// latencies: the state NewHierarchy builds over two new caches. A
// machine's latencies are not part of the storage, so a reused
// hierarchy takes them from its new machine.
func (h *Hierarchy) Reset(l1Lat, l2Lat, memCycles int) {
	h.L1.Reset()
	h.L2.Reset()
	h.L1Latency, h.L2Latency, h.MemCycles = l1Lat, l2Lat, memCycles
	h.served = [3]uint64{}
}

// Access performs a load or store at addr and returns the total latency
// in cycles and the level that satisfied it.
func (h *Hierarchy) Access(addr uint64, write bool) (latency int, level Level) {
	hit, _ := h.L1.Access(addr, write)
	if hit {
		h.served[LevelL1]++
		return h.L1Latency, LevelL1
	}
	// L1 miss: the fill is read from L2 regardless of write-ness
	// (write-allocate).
	l2hit, _ := h.L2.Access(addr, false)
	if l2hit {
		h.served[LevelL2]++
		return h.L1Latency + h.L2Latency, LevelL2
	}
	h.served[LevelMem]++
	return h.L1Latency + h.L2Latency + h.MemCycles, LevelMem
}

// ResetStats zeroes the hierarchy and cache statistics, preserving
// contents.
func (h *Hierarchy) ResetStats() {
	h.served = [3]uint64{}
	h.L1.ResetStats()
	h.L2.ResetStats()
}

// Served returns how many accesses each level satisfied.
func (h *Hierarchy) Served(l Level) uint64 { return h.served[l] }

// ServedFraction returns the fraction of accesses satisfied at level l.
func (h *Hierarchy) ServedFraction(l Level) float64 {
	total := h.served[0] + h.served[1] + h.served[2]
	if total == 0 {
		return 0
	}
	return float64(h.served[l]) / float64(total)
}
