package core

import (
	"reflect"
	"testing"
)

func TestHerdedAllocatorFillsTopDieFirst(t *testing.T) {
	a := NewHerdingAllocator(32, AllocHerded)
	// First 8 allocations must all land on die 0.
	for i := 0; i < 8; i++ {
		e, ok := a.Allocate()
		if !ok {
			t.Fatalf("allocation %d failed", i)
		}
		if e.Die != TopDie {
			t.Errorf("allocation %d landed on die %d, want top die", i, e.Die)
		}
	}
	// The 9th spills to die 1.
	e, ok := a.Allocate()
	if !ok || e.Die != 1 {
		t.Errorf("9th allocation on die %d (ok=%v), want die 1", e.Die, ok)
	}
}

func TestRoundRobinAllocatorSpreads(t *testing.T) {
	a := NewHerdingAllocator(32, AllocRoundRobin)
	var perDie [NumDies]int
	for i := 0; i < NumDies; i++ {
		e, ok := a.Allocate()
		if !ok {
			t.Fatal("allocation failed")
		}
		perDie[e.Die]++
	}
	for d, n := range perDie {
		if n != 1 {
			t.Errorf("die %d received %d of the first 4 allocations, want 1", d, n)
		}
	}
}

func TestAllocatorFullAndRelease(t *testing.T) {
	a := NewHerdingAllocator(8, AllocHerded)
	entries := make([]Entry, 0, 8)
	for i := 0; i < 8; i++ {
		e, ok := a.Allocate()
		if !ok {
			t.Fatalf("allocation %d failed with capacity 8", i)
		}
		entries = append(entries, e)
	}
	if _, ok := a.Allocate(); ok {
		t.Error("allocation succeeded on a full scheduler")
	}
	if a.Free() != 0 {
		t.Errorf("Free = %d, want 0", a.Free())
	}
	a.Release(entries[0])
	if a.Free() != 1 {
		t.Errorf("Free after release = %d, want 1", a.Free())
	}
	if e, ok := a.Allocate(); !ok || e != entries[0] {
		t.Errorf("herded realloc = %+v (ok=%v), want the freed top-die slot", e, ok)
	}
}

func TestAllocatorDoubleReleasePanics(t *testing.T) {
	a := NewHerdingAllocator(8, AllocHerded)
	e, _ := a.Allocate()
	a.Release(e)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	a.Release(e)
}

func TestBroadcastGating(t *testing.T) {
	a := NewHerdingAllocator(32, AllocHerded)
	// Empty scheduler: every die gated.
	if n := a.Broadcast(); n != 0 {
		t.Errorf("broadcast to empty scheduler drove %d dies, want 0", n)
	}
	// One entry on the top die: only die 0 driven.
	e, _ := a.Allocate()
	if n := a.Broadcast(); n != 1 {
		t.Errorf("broadcast drove %d dies, want 1", n)
	}
	// Fill past the top die.
	for i := 0; i < 8; i++ {
		a.Allocate()
	}
	if n := a.Broadcast(); n != 2 {
		t.Errorf("broadcast drove %d dies, want 2", n)
	}
	a.Release(e)
	if got := a.MeanBroadcastDies(); got <= 0 || got > NumDies {
		t.Errorf("MeanBroadcastDies = %g out of range", got)
	}
}

func TestHerdedTopDieShareExceedsRoundRobin(t *testing.T) {
	run := func(policy AllocPolicy) float64 {
		a := NewHerdingAllocator(32, policy)
		live := make([]Entry, 0, 32)
		// Alternate allocate-heavy and release phases at low occupancy,
		// where herding's advantage is largest.
		for step := 0; step < 1000; step++ {
			if len(live) < 6 {
				if e, ok := a.Allocate(); ok {
					live = append(live, e)
				}
			} else {
				a.Release(live[0])
				live = live[1:]
			}
			a.Broadcast()
			a.ObserveOccupancy()
		}
		return a.TopDieAllocShare()
	}
	herded := run(AllocHerded)
	rr := run(AllocRoundRobin)
	if herded <= rr {
		t.Errorf("herded top-die share (%.3f) not above round-robin (%.3f)", herded, rr)
	}
	if herded < 0.99 {
		t.Errorf("at occupancy <= 6/32, herded share = %.3f, want ~1.0", herded)
	}
}

func TestAllocatorOccupancySampling(t *testing.T) {
	a := NewHerdingAllocator(8, AllocHerded)
	a.Allocate()
	a.Allocate()
	a.ObserveOccupancy()
	a.ObserveOccupancy()
	if got := a.MeanOccupancy(TopDie); got != 2 {
		t.Errorf("mean top-die occupancy = %g, want 2", got)
	}
	if got := a.MeanOccupancy(1); got != 0 {
		t.Errorf("mean die-1 occupancy = %g, want 0", got)
	}
}

func TestObserveOccupancyNMatchesRepeatedCalls(t *testing.T) {
	bulk := NewHerdingAllocator(16, AllocRoundRobin)
	single := NewHerdingAllocator(16, AllocRoundRobin)
	for step, k := range []uint64{0, 1, 5, 37, 2} {
		// Uneven per-die occupancy that changes between samples.
		for i := 0; i <= step; i++ {
			bulk.Allocate()
			single.Allocate()
		}
		bulk.ObserveOccupancyN(k)
		for i := uint64(0); i < k; i++ {
			single.ObserveOccupancy()
		}
		if !reflect.DeepEqual(bulk, single) {
			t.Fatalf("after ObserveOccupancyN(%d): %+v, want %+v", k, bulk, single)
		}
	}
	for d := 0; d < NumDies; d++ {
		if bulk.MeanOccupancy(d) != single.MeanOccupancy(d) {
			t.Errorf("die %d: mean occupancy %g, want %g", d, bulk.MeanOccupancy(d), single.MeanOccupancy(d))
		}
	}
}

func TestAllocatorRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 30} { // 30 not divisible by 4
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHerdingAllocator(%d) did not panic", n)
				}
			}()
			NewHerdingAllocator(n, AllocHerded)
		}()
	}
}

func TestAllocPolicyStrings(t *testing.T) {
	if AllocHerded.String() != "herded" || AllocRoundRobin.String() != "round-robin" {
		t.Error("policy String() mismatch")
	}
}
