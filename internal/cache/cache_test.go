package cache

import (
	"math/rand"
	"testing"
)

func TestCacheColdMissThenHit(t *testing.T) {
	c := New(Config{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64, Latency: 3})
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("second access missed")
	}
	// Same line, different offset: still a hit.
	if hit, _ := c.Access(0x103f, false); !hit {
		t.Error("same-line access missed")
	}
	// Next line: miss.
	if hit, _ := c.Access(0x1040, false); hit {
		t.Error("next-line access hit")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 4 sets × 2 ways × 64B lines = 512B.
	c := New(Config{Name: "tiny", Size: 512, Ways: 2, LineSize: 64})
	setStride := uint64(4 * 64)
	a, b, d := uint64(0), setStride, 2*setStride // same set (set 0)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line survived")
	}
	if !c.Probe(d) {
		t.Error("newly filled line absent")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{Name: "tiny", Size: 128, Ways: 1, LineSize: 64}) // 2 sets, direct-mapped
	setStride := uint64(2 * 64)
	c.Access(0, true) // dirty line in set 0
	_, wb := c.Access(setStride, false)
	if !wb {
		t.Error("dirty eviction did not report writeback")
	}
	_, _, wbs := c.Stats()
	if wbs != 1 {
		t.Errorf("writebacks = %d, want 1", wbs)
	}
	// Clean eviction: no writeback.
	_, wb = c.Access(2*setStride, false)
	if wb {
		t.Error("clean eviction reported writeback")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// A working set within capacity should converge to ~0 misses; one
	// far beyond capacity should keep missing.
	run := func(ws uint64) float64 {
		c := New(Config{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64})
		rng := rand.New(rand.NewSource(5))
		// Warm up, then measure.
		for i := 0; i < 20000; i++ {
			c.Access(rng.Uint64()%ws, false)
		}
		a0, m0, _ := c.Stats()
		for i := 0; i < 20000; i++ {
			c.Access(rng.Uint64()%ws, false)
		}
		a1, m1, _ := c.Stats()
		return float64(m1-m0) / float64(a1-a0)
	}
	if mr := run(16 << 10); mr > 0.01 {
		t.Errorf("in-capacity working set miss rate = %.4f, want ~0", mr)
	}
	if mr := run(4 << 20); mr < 0.5 {
		t.Errorf("4MB working set in 32KB cache miss rate = %.4f, want > 0.5", mr)
	}
}

func TestCacheMissRateAndStats(t *testing.T) {
	c := New(Config{Name: "x", Size: 1 << 10, Ways: 2, LineSize: 64})
	c.Access(0, false)
	c.Access(0, false)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %g, want 0.5", got)
	}
	a, m, _ := c.Stats()
	if a != 2 || m != 1 {
		t.Errorf("stats = (%d,%d), want (2,1)", a, m)
	}
}

func TestCacheRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "a", Size: 0, Ways: 1, LineSize: 64},
		{Name: "b", Size: 1024, Ways: 1, LineSize: 60},
		{Name: "c", Size: 96 * 64, Ways: 1, LineSize: 64}, // 96 sets: not power of two
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb := NewTLB("dtlb", 256, 4)
	if tlb.Access(0x1000) {
		t.Error("cold TLB access hit")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same-page access missed")
	}
	if tlb.Access(0x2000) {
		t.Error("next-page access hit")
	}
	a, m := tlb.Stats()
	if a != 3 || m != 2 {
		t.Errorf("TLB stats = (%d,%d), want (3,2)", a, m)
	}
	if tlb.MissRate() <= 0 {
		t.Error("TLB miss rate should be positive")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	l1 := New(Config{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64})
	l2 := New(Config{Name: "l2", Size: 4 << 20, Ways: 16, LineSize: 64})
	h := NewHierarchy(l1, l2, 3, 12, 160)

	// Cold: misses everywhere → 3+12+160.
	lat, lvl := h.Access(0x10000, false)
	if lat != 175 || lvl != LevelMem {
		t.Errorf("cold access = (%d, %v), want (175, mem)", lat, lvl)
	}
	// Now in both L1 and L2 → L1 hit.
	lat, lvl = h.Access(0x10000, false)
	if lat != 3 || lvl != LevelL1 {
		t.Errorf("warm access = (%d, %v), want (3, L1)", lat, lvl)
	}
	// Evict from L1 by sweeping its capacity (same L1 set), keep in L2.
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x10000+i*(32<<10)/8, false)
	}
	lat, lvl = h.Access(0x10000, false)
	if lat != 15 || lvl != LevelL2 {
		t.Errorf("L2 hit = (%d, %v), want (15, L2)", lat, lvl)
	}
}

func TestHierarchyServedCounters(t *testing.T) {
	l1 := New(Config{Name: "l1", Size: 1 << 10, Ways: 2, LineSize: 64})
	l2 := New(Config{Name: "l2", Size: 8 << 10, Ways: 4, LineSize: 64})
	h := NewHierarchy(l1, l2, 3, 12, 100)
	h.Access(0, false)
	h.Access(0, false)
	if h.Served(LevelMem) != 1 || h.Served(LevelL1) != 1 {
		t.Errorf("served = [%d %d %d]", h.Served(LevelL1), h.Served(LevelL2), h.Served(LevelMem))
	}
	if f := h.ServedFraction(LevelL1); f != 0.5 {
		t.Errorf("L1 fraction = %g, want 0.5", f)
	}
}

func TestLevelStrings(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "mem" {
		t.Error("level names wrong")
	}
}

// TestLazySetsMatchEagerCache replays one random trace through a cache
// whose sets are allocated on first miss and through one with every set
// built up front: every access and probe must agree.
func TestLazySetsMatchEagerCache(t *testing.T) {
	cfg := Config{Name: "l2", Size: 64 << 10, Ways: 4, LineSize: 64}
	lazy := New(cfg)
	eager := New(cfg)
	for s := range eager.sets {
		eager.allocSet(uint64(s))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200_000; i++ {
		// A 1 MB footprint over a 64 KB cache: plenty of evictions.
		addr := uint64(rng.Intn(1 << 20))
		write := rng.Intn(3) == 0
		if lazy.Probe(addr) != eager.Probe(addr) {
			t.Fatalf("access %d: probe of %#x disagrees", i, addr)
		}
		lh, lw := lazy.Access(addr, write)
		eh, ew := eager.Access(addr, write)
		if lh != eh || lw != ew {
			t.Fatalf("access %d to %#x: lazy (hit %v, writeback %v), eager (hit %v, writeback %v)",
				i, addr, lh, lw, eh, ew)
		}
	}
	la, lm, lwb := lazy.Stats()
	ea, em, ewb := eager.Stats()
	if la != ea || lm != em || lwb != ewb {
		t.Errorf("stats lazy (%d, %d, %d), eager (%d, %d, %d)", la, lm, lwb, ea, em, ewb)
	}
}

// TestNewAllocatesNoSets checks that building even a 4 MB cache costs a
// constant number of allocations, not one per set.
func TestNewAllocatesNoSets(t *testing.T) {
	cfg := Config{Name: "l2", Size: 4 << 20, Ways: 16, LineSize: 64}
	if n := testing.AllocsPerRun(10, func() { New(cfg) }); n > 2 {
		t.Errorf("New made %v allocations, want at most 2", n)
	}
}

// TestResetMatchesNew drives a cache, a TLB and a hierarchy with random
// traffic, resets them, and checks that a scripted access sequence then
// gives the same result at every step, and the same statistics, as on
// components just built. The hierarchy is reset to other latencies, as
// a reused core's is for another machine.
func TestResetMatchesNew(t *testing.T) {
	cfg := Config{Name: "l2", Size: 64 << 10, Ways: 4, LineSize: 64}
	l1cfg := Config{Name: "l1", Size: 4 << 10, Ways: 2, LineSize: 64}
	used := New(cfg)
	usedTLB := NewTLB("dtlb", 64, 4)
	usedH := NewHierarchy(New(l1cfg), New(cfg), 3, 12, 160)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50_000; i++ {
		addr := uint64(rng.Intn(4 << 20))
		used.Access(addr, rng.Intn(2) == 0)
		usedTLB.Access(addr << 4)
		usedH.Access(addr, rng.Intn(2) == 0)
	}
	used.Reset()
	usedTLB.Reset()
	usedH.Reset(2, 9, 200)
	fresh, freshTLB := New(cfg), NewTLB("dtlb", 64, 4)
	freshH := NewHierarchy(New(l1cfg), New(cfg), 2, 9, 200)

	script := rand.New(rand.NewSource(10))
	for i := 0; i < 50_000; i++ {
		addr := uint64(script.Intn(2 << 20))
		write := script.Intn(3) == 0
		if used.Probe(addr) != fresh.Probe(addr) {
			t.Fatalf("step %d: probe of %#x disagrees", i, addr)
		}
		uh, uw := used.Access(addr, write)
		fh, fw := fresh.Access(addr, write)
		if uh != fh || uw != fw {
			t.Fatalf("step %d: cache access to %#x: reset (%v, %v), new (%v, %v)", i, addr, uh, uw, fh, fw)
		}
		if u, f := usedTLB.Access(addr<<4), freshTLB.Access(addr<<4); u != f {
			t.Fatalf("step %d: TLB access to %#x: reset %v, new %v", i, addr<<4, u, f)
		}
		ul, ulv := usedH.Access(addr, write)
		fl, flv := freshH.Access(addr, write)
		if ul != fl || ulv != flv {
			t.Fatalf("step %d: hierarchy access to %#x: reset (%d, %v), new (%d, %v)", i, addr, ul, ulv, fl, flv)
		}
	}
	ua, um, uwb := used.Stats()
	fa, fm, fwb := fresh.Stats()
	if ua != fa || um != fm || uwb != fwb {
		t.Errorf("cache stats: reset (%d, %d, %d), new (%d, %d, %d)", ua, um, uwb, fa, fm, fwb)
	}
	ua, um = usedTLB.Stats()
	fa, fm = freshTLB.Stats()
	if ua != fa || um != fm {
		t.Errorf("TLB stats: reset (%d, %d), new (%d, %d)", ua, um, fa, fm)
	}
	for l := LevelL1; l <= LevelMem; l++ {
		if u, f := usedH.Served(l), freshH.Served(l); u != f {
			t.Errorf("hierarchy served at %v: reset %d, new %d", l, u, f)
		}
	}
}

// TestResetKeepsTouchedStorageOnly checks that a reset cache reuses its
// line storage and grows it no further than the sets a job touches:
// refilling the same sets allocates nothing.
func TestResetKeepsTouchedStorageOnly(t *testing.T) {
	c := New(Config{Name: "l2", Size: 4 << 20, Ways: 16, LineSize: 64})
	fill := func() {
		for a := uint64(0); a < 200*64; a += 64 {
			c.Access(a, false)
		}
	}
	fill()
	if n := testing.AllocsPerRun(10, func() { c.Reset(); fill() }); n != 0 {
		t.Errorf("reset and refill made %v allocations, want 0", n)
	}
	if got, want := len(c.chunks), (200+chunkSets-1)/chunkSets; got != want {
		t.Errorf("%d chunks after 200 sets, want %d", got, want)
	}
}
