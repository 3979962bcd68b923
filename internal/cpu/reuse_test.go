package cpu_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/experiments"
	"thermalherd/internal/trace"
)

// digest returns the SHA-256 of the JSON-encoded Stats.
func digest(t testing.TB, s *cpu.Stats) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// freshStats runs workload under cfg on a core built on new storage,
// through the experiments' FastForward → Warmup → Run sequence.
func freshStats(t testing.TB, cfg config.Machine, workload string, ff, warm, measure uint64) cpu.Stats {
	t.Helper()
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewFresh(cfg, trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	c.FastForward(ff)
	c.Warmup(warm)
	return *c.Run(measure)
}

// runnerStats runs workload under cfg through an experiments.Runner,
// which builds its core with New and releases it when done.
func runnerStats(t testing.TB, ctx context.Context, cfg config.Machine, workload string, ff, warm, measure uint64) (*cpu.Stats, error) {
	t.Helper()
	r := experiments.NewRunner(experiments.Options{
		FastForwardInsts: ff, WarmupInsts: warm, MeasureInsts: measure, Parallelism: 1,
	})
	r.SetContext(ctx)
	return r.Simulate(cfg, workload)
}

// TestStatsDigestsPinned pins the complete Stats of a cycle-level run
// for every configuration, on compute-bound and memory-bound workloads.
// Any change to the timing model's results, however small, changes a
// digest. The digests were generated with the original full-ROB-scan
// issue logic, before the wait list, completion heap and idle-cycle
// skip replaced it, and before cores were recycled; they must not be
// regenerated for a speed change.
//
// Each case runs twice: on a core built on new storage, and through a
// Runner on the core the previous case released, which last ran
// another machine on another workload.
func TestStatsDigestsPinned(t *testing.T) {
	const ff, warm, measure = 50_000, 10_000, 40_000
	cases := []struct {
		cfg, workload, digest string
	}{
		{"Base", "gzip", "9cdbc27924613608906d75aaac0bc6c8e774479d1455457e4de8e0c2ac585672"},
		{"TH", "mcf", "c64b79be5c2dd884d7919e2e912322eedcf4f7e45362f7a140be05acab947aaa"},
		{"Pipe", "swim", "43868341a79fdf727ef4b134001269db66a2209c448d998ca2700aca10b62c0e"},
		{"Fast", "bitcount", "91700369ff284e9c03684ec6b222d8b5480e2d81bc1e54238c366ecde7307a56"},
		{"3D", "mcf", "ea71f068526e331d746eefe84d9ca8e02be38ee2f7914f560b0695f5f0f36f8a"},
		{"3D", "swim", "f96aa32feb058817a508bde7b2c6f7447345e3c2c54b4dbb75af8adb5958b579"},
		{"3D-noTH", "gcc", "13c3eb92982a3d69c1248c905f1cddfd50812a098ffe8d0bb4985614e600a8fa"},
		{"TH", "mpeg2enc", "7cdc45bf321aaa0ccc0333446021bb2559cfd26533b3b6034895ba16e4184af7"},
	}
	// The first case reuses the core of a run of the last case.
	last := cases[len(cases)-1]
	cfg, err := config.ByName(last.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runnerStats(t, context.Background(), cfg, last.workload, ff, warm, measure); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		cfg, err := config.ByName(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh := freshStats(t, cfg, tc.workload, ff, warm, measure)
		if got := digest(t, &fresh); got != tc.digest {
			t.Errorf("%s/%s on a new core: Stats digest %s, want %s", tc.cfg, tc.workload, got, tc.digest)
		}
		if cpu.FreeCores(cfg) == 0 {
			t.Fatalf("%s/%s: no released core for the Runner to reuse", tc.cfg, tc.workload)
		}
		reused, err := runnerStats(t, context.Background(), cfg, tc.workload, ff, warm, measure)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(t, reused); got != tc.digest {
			t.Errorf("%s/%s on a reused core: Stats digest %s, want %s", tc.cfg, tc.workload, got, tc.digest)
		}
	}
}

// cancelAfter is a context whose Err reports cancellation once it has
// been called n times, so a Runner stops at a chosen phase boundary.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCoreReleasedMidRunMatchesFresh cancels a Runner's simulation
// right after FastForward, so its core is released with warm caches,
// trained predictors and a fast-forwarded source, and checks that the
// next simulation, which reuses that core, equals a run on a new core.
func TestCoreReleasedMidRunMatchesFresh(t *testing.T) {
	const ff, warm, measure = 20_000, 5_000, 10_000
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(1) // the Runner's check before New passes; the one after FastForward fails
	before := cpu.FreeCores(config.ThreeD())
	if _, err := runnerStats(t, ctx, config.ThreeD(), "mcf", ff, warm, measure); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if after := cpu.FreeCores(config.ThreeD()); after != max(before, 1) {
		t.Fatalf("%d free cores after the canceled run, want %d", after, max(before, 1))
	}
	got, err := runnerStats(t, context.Background(), config.TH(), "gzip", ff, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshStats(t, config.TH(), "gzip", ff, warm, measure); !reflect.DeepEqual(*got, want) {
		t.Errorf("Stats on the core released mid-run differ from a new core's:\n got %+v\nwant %+v", *got, want)
	}
}

// TestOtherShapeNeverTakesRegistryCore checks that a machine whose
// storage is sized differently never receives a registry machine's
// released core, and runs as on a new core.
func TestOtherShapeNeverTakesRegistryCore(t *testing.T) {
	const ff, warm, measure = 10_000, 2_000, 5_000
	prof, err := trace.ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []struct {
		name string
		set  func(*config.Machine)
	}{
		{"L2Size", func(m *config.Machine) { m.L2Size /= 2 }},
		{"ROBSize", func(m *config.Machine) { m.ROBSize = 64 }},
	} {
		reg, err := cpu.New(config.ThreeD(), trace.NewGenerator(prof))
		if err != nil {
			t.Fatal(err)
		}
		reg.FastForward(ff)
		reg.Release()
		regFree := cpu.FreeCores(config.ThreeD())

		m := config.ThreeD()
		m.Name = "3D-" + mod.name
		mod.set(&m)
		c, err := cpu.New(m, trace.NewGenerator(prof))
		if err != nil {
			t.Fatal(err)
		}
		if c == reg {
			t.Fatalf("%s: a machine of another shape received a registry-shaped core", mod.name)
		}
		if n := cpu.FreeCores(config.ThreeD()); n != regFree {
			t.Errorf("%s: building another shape took a registry-shaped core (%d free, was %d)", mod.name, n, regFree)
		}
		c.FastForward(ff)
		c.Warmup(warm)
		if got, want := *c.Run(measure), freshStats(t, m, "gzip", ff, warm, measure); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Stats differ from a new core's:\n got %+v\nwant %+v", mod.name, got, want)
		}
		c.Release()
	}
}

// TestConcurrentSimulateManyReusesCores runs two overlapping batches of
// simulations at once, each on several workers, so cores and
// generators pass between goroutines through the free lists, and
// checks every result against a run on a new core. Run it under -race.
func TestConcurrentSimulateManyReusesCores(t *testing.T) {
	const ff, warm, measure = 5_000, 1_000, 2_000
	opts := experiments.Options{FastForwardInsts: ff, WarmupInsts: warm, MeasureInsts: measure, Parallelism: 3}
	cfgs := []config.Machine{config.Baseline(), config.ThreeD(), config.Pipe()}
	wls := []string{"gzip", "mcf", "bitcount", "swim"}
	runners := []*experiments.Runner{experiments.NewRunner(opts), experiments.NewRunner(opts)}
	errs := make(chan error, len(runners))
	for _, r := range runners {
		go func() { errs <- r.SimulateMany(cfgs, wls) }()
	}
	for range runners {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range cfgs {
		for _, wl := range wls {
			want := freshStats(t, cfg, wl, ff, warm, measure)
			for i, r := range runners {
				got, err := r.Simulate(cfg, wl) // cached: no new simulation
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*got, want) {
					t.Errorf("runner %d, %s/%s: Stats differ from a new core's", i, cfg.Name, wl)
				}
			}
		}
	}
}
