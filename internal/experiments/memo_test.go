package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/trace"
)

// tinyOptions are depths small enough that a test can run many real
// simulations.
func tinyOptions() Options {
	return Options{FastForwardInsts: 4000, WarmupInsts: 2000, MeasureInsts: 2000, Parallelism: 1, Grid: 8}
}

func testKey(workload string) simKey {
	return simKey{cfg: config.Baseline(), workload: workload}
}

// TestMemoSharesAcrossRunners: once one runner over a memo has run a
// simulation, seven more runners over it, asking at once, take that
// result instead of simulating, and it equals the result of a runner
// without a memo.
func TestMemoSharesAcrossRunners(t *testing.T) {
	m := NewMemo()
	simulate := func() (cpu.Stats, error) {
		r := NewRunner(tinyOptions())
		r.SetMemo(m)
		s, err := r.Simulate(config.ThreeD(), "gzip")
		if err != nil {
			return cpu.Stats{}, err
		}
		return *s, nil
	}
	want, err := NewRunner(tinyOptions()).Simulate(config.ThreeD(), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := simulate(); err != nil {
		t.Fatal(err)
	} else if got != *want {
		t.Fatal("first runner: memo result differs from an unshared simulation")
	}
	var wg sync.WaitGroup
	got := make([]cpu.Stats, 7)
	errs := make([]error, 7)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = simulate()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("runner %d: %v", i, errs[i])
		}
		if got[i] != *want {
			t.Errorf("runner %d: memo result differs from an unshared simulation", i)
		}
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 7 || st.Entries != 1 {
		t.Errorf("memo stats = %+v, want 1 miss, 7 hits, 1 entry", st)
	}
}

// TestMemoKeepsNoFailure: a simulation that fails (its job was
// canceled) is not kept, so the next request simulates for itself
// instead of inheriting the error.
func TestMemoKeepsNoFailure(t *testing.T) {
	m := NewMemo()
	key := testKey("gzip")
	if _, err := m.simulate(key, func() (cpu.Stats, error) {
		return cpu.Stats{}, context.Canceled
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("failed simulation err = %v, want context.Canceled", err)
	}
	st, err := m.simulate(key, func() (cpu.Stats, error) { return cpu.Stats{Insts: 42}, nil })
	if err != nil || st.Insts != 42 {
		t.Fatalf("retry: Insts %d, err %v; want 42, nil", st.Insts, err)
	}
	if got := m.Stats(); got.Misses != 2 || got.Hits != 0 || got.Entries != 1 {
		t.Errorf("memo stats = %+v, want 2 misses, 0 hits, 1 entry", got)
	}
}

// TestMemoEvictsOldest fills the memo one past its cap: the oldest
// entry is evicted and simulates again; the next oldest is still held.
func TestMemoEvictsOldest(t *testing.T) {
	m := NewMemo()
	runs := 0
	get := func(i int) {
		t.Helper()
		st, err := m.simulate(testKey(fmt.Sprint(i)), func() (cpu.Stats, error) {
			runs++
			return cpu.Stats{Insts: uint64(i)}, nil
		})
		if err != nil || st.Insts != uint64(i) {
			t.Fatalf("key %d: Insts %d, err %v", i, st.Insts, err)
		}
	}
	for i := 0; i <= memoCap; i++ {
		get(i)
	}
	if st := m.Stats(); st.Entries != memoCap {
		t.Fatalf("entries = %d, want %d", st.Entries, memoCap)
	}
	runs = 0
	get(1)
	if runs != 0 {
		t.Error("second-oldest entry was evicted")
	}
	get(0)
	if runs != 1 {
		t.Error("oldest entry was not evicted")
	}
}

// TestRunnerKeysByMachineValue: two machines that share a name but
// differ in their clock are different simulations.
func TestRunnerKeysByMachineValue(t *testing.T) {
	r := NewRunner(tinyOptions())
	a := config.ThreeD()
	b := a
	b.ClockGHz *= 2
	sa, err := r.Simulate(a, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.Simulate(b, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if sa == sb || len(r.cache) != 2 {
		t.Errorf("machines differing only in ClockGHz share a cache entry (%d entries)", len(r.cache))
	}
}

// TestRunnerCacheDoesNotPinCores caches eight simulations in one runner
// and checks that each entry keeps only its statistics live, not the
// core that produced them. Released cores and generators wait in
// bounded free lists for reuse; that storage is fixed, not per entry,
// so before the heap is measured one simulation fills the lists: of the
// workload with the largest program and, among those, the largest
// working set, so that the program storage and the cache storage both
// reach their high-water marks for these workloads.
func TestRunnerCacheDoesNotPinCores(t *testing.T) {
	wls := []string{"gzip", "mcf", "crafty", "bitcount", "adpcmenc", "mpeg2enc", "gcc", "parser"}
	var largest trace.Profile
	for _, wl := range wls {
		p, err := trace.ProfileByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		if p.StaticInsts > largest.StaticInsts ||
			p.StaticInsts == largest.StaticInsts && p.WorkingSet > largest.WorkingSet {
			largest = p
		}
	}
	if _, err := NewRunner(tinyOptions()).Simulate(config.ThreeD(), largest.Name); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRunner(tinyOptions())
	for _, wl := range wls {
		if _, err := r.Simulate(config.ThreeD(), wl); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(wls))
	if per >= 16<<10 {
		t.Errorf("each cached simulation retains %d B of heap, want < 16 KB", per)
	}
}
