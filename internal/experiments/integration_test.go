package experiments

import (
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/emu"
	"thermalherd/internal/kernels"
	"thermalherd/internal/power"
	"thermalherd/internal/thermal"
	"thermalherd/internal/trace"
)

// TestKernelEndToEnd drives a real TH64 program (functional emulation)
// through the timing model, the power model, and the thermal solver —
// the full stack a library user composes.
func TestKernelEndToEnd(t *testing.T) {
	k := kernels.PointerChase(64, 200)

	runOn := func(cfg config.Machine) (*cpu.Stats, *power.Breakdown, float64) {
		m := emu.New(k.Program)
		c, err := cpu.New(cfg, emu.NewSource(m, 0))
		if err != nil {
			t.Fatal(err)
		}
		s := c.Run(1 << 60) // to completion
		if s.Insts == 0 {
			t.Fatal("no instructions executed")
		}
		// The emulator must still have computed the right answer.
		if got := m.IntRegs[k.ResultReg]; got != k.Expected {
			t.Fatalf("kernel result %d, want %d", got, k.Expected)
		}
		fp := power.FloorplanFor(cfg)
		b, err := power.Compute(cfg, s, fp)
		if err != nil {
			t.Fatal(err)
		}
		stack, err := thermal.Build(fp, b.Watts, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := stack.Solve()
		if err != nil {
			t.Fatal(err)
		}
		peak, _, _, _ := sol.Peak()
		return s, b, peak
	}

	sBase, bBase, peakBase := runOn(config.Baseline())
	s3D, b3D, peak3D := runOn(config.ThreeD())

	// Performance: the kernel is cache-resident, so 3D should deliver a
	// large fraction of the frequency gain.
	speedup := s3D.IPns(config.ThreeDClockGHz) / sBase.IPns(config.BaseClockGHz)
	if speedup < 1.2 {
		t.Errorf("3D speedup on pointer chase = %.3f, want >= 1.2", speedup)
	}
	// Power: 3D with herding must be cheaper.
	if b3D.TotalW >= bBase.TotalW {
		t.Errorf("3D power (%.1f W) not below planar (%.1f W)", b3D.TotalW, bBase.TotalW)
	}
	// Thermals: both must solve to sane temperatures above ambient.
	for _, p := range []float64{peakBase, peak3D} {
		if p <= thermal.AmbientK || p > 500 {
			t.Errorf("implausible peak temperature %.1f K", p)
		}
	}
	// Herding evidence on real pointer-chasing code: PVAddr should have
	// contributed to D-cache low-width coverage.
	if s3D.PV.LowFraction() <= s3D.PV.ZeroOnlyFraction() {
		t.Errorf("2-bit PV encoding (%.3f) did not beat zeros-only (%.3f) on pointer chase",
			s3D.PV.LowFraction(), s3D.PV.ZeroOnlyFraction())
	}
}

// TestKernelWidthAccuracyHigh checks the paper's predictability claim on
// real computation end to end through the pipeline.
func TestKernelWidthAccuracyHigh(t *testing.T) {
	for _, k := range []kernels.Kernel{kernels.Fibonacci(92), kernels.ArraySum(256)} {
		m := emu.New(k.Program)
		c, err := cpu.New(config.ThreeD(), emu.NewSource(m, 0))
		if err != nil {
			t.Fatal(err)
		}
		s := c.Run(1 << 60)
		if s.WidthPredictions == 0 {
			t.Fatalf("%s: no width predictions", k.Name)
		}
		if s.WidthAccuracy < 0.9 {
			t.Errorf("%s: width accuracy %.3f, want >= 0.9", k.Name, s.WidthAccuracy)
		}
	}
}

// TestSyntheticAndEmulatedAgreeOnPremises cross-validates the synthetic
// generator against real code: both must exhibit high PAM hit rates and
// high width predictability — the two phenomena Thermal Herding rests
// on.
func TestSyntheticAndEmulatedAgreeOnPremises(t *testing.T) {
	// Real kernel.
	m := emu.New(kernels.BubbleSort(24).Program)
	cReal, err := cpu.New(config.ThreeD(), emu.NewSource(m, 0))
	if err != nil {
		t.Fatal(err)
	}
	real := cReal.Run(1 << 60)

	// Synthetic workload.
	prof, err := trace.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	cSyn, err := cpu.New(config.ThreeD(), trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	cSyn.Warmup(100_000)
	syn := cSyn.Run(60_000)

	// The emulated kernel works on one contiguous array, so its PAM
	// locality is near-perfect; the synthetic workload interleaves
	// independent regions (stack, hot set, streams), which caps PAM at a
	// moderate rate — both must still clear their floors, and width
	// predictability must be high for both.
	for _, probe := range []struct {
		name      string
		real, syn float64
		minReal   float64
		minSyn    float64
	}{
		{"PAM hit rate", real.PAMHitRate, syn.PAMHitRate, 0.6, 0.25},
		{"width accuracy", real.WidthAccuracy, syn.WidthAccuracy, 0.85, 0.85},
	} {
		if probe.real < probe.minReal {
			t.Errorf("emulated %s = %.3f below %.2f", probe.name, probe.real, probe.minReal)
		}
		if probe.syn < probe.minSyn {
			t.Errorf("synthetic %s = %.3f below %.2f", probe.name, probe.syn, probe.minSyn)
		}
	}
}
