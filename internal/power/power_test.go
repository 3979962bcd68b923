package power

import (
	"math"
	"testing"

	"thermalherd/internal/config"
	"thermalherd/internal/cpu"
	"thermalherd/internal/floorplan"
	"thermalherd/internal/trace"
)

func simulate(t *testing.T, cfg config.Machine, workload string, insts uint64) *cpu.Stats {
	t.Helper()
	if insts == 0 {
		insts = 200000
	}
	p, err := trace.ProfileByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cfg, trace.NewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	// Warm caches and predictors deeply enough that steady-state
	// behaviour, not cold-start, is measured (the role of SimPoint
	// warmup in the paper).
	c.Warmup(600000)
	return c.Run(insts)
}

func computeFor(t *testing.T, cfg config.Machine, workload string) *Breakdown {
	t.Helper()
	s := simulate(t, cfg, workload, 0)
	b, err := Compute(cfg, s, FloorplanFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	b.Workload = workload
	return b
}

func TestBaselineMpeg2NearNinetyWatts(t *testing.T) {
	b := computeFor(t, config.Baseline(), "mpeg2enc")
	if b.TotalW < 78 || b.TotalW > 104 {
		t.Errorf("baseline mpeg2enc total = %.1f W, want ≈ 90 (paper's reference)", b.TotalW)
	}
	// Clock should be ~35% and leakage ~20% of the reference total.
	if math.Abs(b.ClockW-31.5) > 0.01 {
		t.Errorf("clock = %.2f W, want 31.5", b.ClockW)
	}
	if math.Abs(b.LeakageW-18) > 0.01 {
		t.Errorf("leakage = %.2f W, want 18", b.LeakageW)
	}
}

func TestPowerOrderingPlanarVs3D(t *testing.T) {
	base := computeFor(t, config.Baseline(), "mpeg2enc")
	noTH := computeFor(t, config.ThreeDNoTH(), "mpeg2enc")
	th := computeFor(t, config.ThreeD(), "mpeg2enc")
	// The paper's Figure 9 ordering: planar > 3D-noTH > 3D-TH.
	if !(base.TotalW > noTH.TotalW && noTH.TotalW > th.TotalW) {
		t.Errorf("power ordering violated: base=%.1f noTH=%.1f th=%.1f",
			base.TotalW, noTH.TotalW, th.TotalW)
	}
	// 3D without TH saves ~19%, with TH ~29%.
	if s := noTH.Saving(base); s < 0.10 || s > 0.30 {
		t.Errorf("3D-noTH saving = %.3f, want ≈ 0.19", s)
	}
	if s := th.Saving(base); s < 0.20 || s > 0.42 {
		t.Errorf("3D-TH saving = %.3f, want ≈ 0.29", s)
	}
}

func TestTHGatingSavesDynamicPower(t *testing.T) {
	noTH := computeFor(t, config.ThreeDNoTH(), "susan_s")
	th := computeFor(t, config.ThreeD(), "susan_s")
	if th.DynamicW >= noTH.DynamicW {
		t.Errorf("TH dynamic (%.1f W) not below no-TH (%.1f W)", th.DynamicW, noTH.DynamicW)
	}
}

func TestComputeVsMemorySavingsOrdering(t *testing.T) {
	base := config.Baseline()
	th := config.ThreeD()
	saving := func(workload string) float64 {
		b := computeFor(t, base, workload)
		h := computeFor(t, th, workload)
		return h.Saving(b)
	}
	susan := saving("susan_s")
	yacr2 := saving("yacr2")
	// susan (computation-intensive) must save more than yacr2
	// (memory-intensive), per the paper's 30% vs 15% endpoints.
	if susan <= yacr2 {
		t.Errorf("susan saving (%.3f) not above yacr2 (%.3f)", susan, yacr2)
	}
}

func TestUnitMapConsistentWithTotal(t *testing.T) {
	b := computeFor(t, config.Baseline(), "gzip")
	if got := b.UnitTotal(floorplan.Planar()); math.Abs(got-b.TotalW) > 1e-6*b.TotalW {
		t.Errorf("unit map total %.4f W != breakdown total %.4f W", got, b.TotalW)
	}
	b3 := computeFor(t, config.ThreeD(), "gzip")
	if got := b3.UnitTotal(floorplan.Stacked()); math.Abs(got-b3.TotalW) > 1e-6*b3.TotalW {
		t.Errorf("3D unit map total %.4f W != %.4f W", got, b3.TotalW)
	}
}

// TestUnitSumsRepeatBitForBit repeats the per-unit sums over one 3D
// breakdown: summed in map order they came out in many different bit
// patterns; summed in floorplan order every repeat is identical.
func TestUnitSumsRepeatBitForBit(t *testing.T) {
	b := computeFor(t, config.ThreeD(), "gzip")
	fp := floorplan.Stacked()
	scale := func(u floorplan.Unit) float64 { return 1 + 0.01*float64(u.Block) + 0.1*float64(u.Die) }
	dst := make(map[UnitKey]float64, len(b.UnitW))
	total, leak := math.Float64bits(b.UnitTotal(fp)), math.Float64bits(b.RescaleLeakage(fp, scale, dst))
	for i := 0; i < 400; i++ {
		if got := math.Float64bits(b.UnitTotal(fp)); got != total {
			t.Fatalf("repeat %d: UnitTotal bits %#x, first call %#x", i, got, total)
		}
		if got := math.Float64bits(b.RescaleLeakage(fp, scale, dst)); got != leak {
			t.Fatalf("repeat %d: RescaleLeakage bits %#x, first call %#x", i, got, leak)
		}
	}
}

func TestThreeDTopDiePowerShare(t *testing.T) {
	b := computeFor(t, config.ThreeD(), "gzip")
	perDie := [4]float64{}
	for k, w := range b.UnitW {
		perDie[k.Die] += w
	}
	total := perDie[0] + perDie[1] + perDie[2] + perDie[3]
	// Thermal herding must put the plurality of power on the top die.
	if perDie[0] <= perDie[1] || perDie[0] <= perDie[3] {
		t.Errorf("top-die power (%.1f W) not dominant: %v (total %.1f)", perDie[0], perDie, total)
	}
}

func TestFastConfigClockScales(t *testing.T) {
	fast := computeFor(t, config.Fast(), "gzip")
	want := ClockW2D() * config.ThreeDClockGHz / config.BaseClockGHz
	if math.Abs(fast.ClockW-want) > 0.01 {
		t.Errorf("Fast clock power = %.2f W, want %.2f", fast.ClockW, want)
	}
}

func TestComputeRejectsMismatchedFloorplan(t *testing.T) {
	s := simulate(t, config.Baseline(), "gzip", 5000)
	if _, err := Compute(config.Baseline(), s, floorplan.Stacked()); err == nil {
		t.Error("planar config with stacked floorplan accepted")
	}
	cfg3 := config.ThreeD()
	s3 := simulate(t, cfg3, "gzip", 5000)
	if _, err := Compute(cfg3, s3, floorplan.Planar()); err == nil {
		t.Error("3D config with planar floorplan accepted")
	}
}

// TestFloorplanForMatchesCompute checks that every registered machine's
// floorplan is one Compute accepts for it.
func TestFloorplanForMatchesCompute(t *testing.T) {
	s := simulate(t, config.Baseline(), "gzip", 5000)
	for _, cfg := range config.Registry() {
		fp := FloorplanFor(cfg)
		if want := map[bool]int{false: 1, true: 4}[cfg.ThreeD]; fp.NumDies != want {
			t.Errorf("%s: floorplan %s has %d dies, want %d", cfg.Name, fp.Name, fp.NumDies, want)
		}
		if _, err := Compute(cfg, s, fp); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestComputeRejectsEmptyStats(t *testing.T) {
	if _, err := Compute(config.Baseline(), &cpu.Stats{}, floorplan.Planar()); err == nil {
		t.Error("zero-cycle stats accepted")
	}
}

func TestDensityStudyMapPreservesTotal(t *testing.T) {
	b := computeFor(t, config.Baseline(), "mpeg2enc")
	sfp := floorplan.Stacked()
	watts := DensityStudyMap(b, sfp)
	var total float64
	perDie := [4]float64{}
	for _, u := range sfp.Units {
		total += watts(u)
		perDie[u.Die] += watts(u)
	}
	if math.Abs(total-b.TotalW) > 1e-6*b.TotalW {
		t.Errorf("density map total %.3f W != planar total %.3f W", total, b.TotalW)
	}
	// Every die must carry an equal quarter.
	for d := 1; d < 4; d++ {
		if math.Abs(perDie[d]-perDie[0]) > 1e-9 {
			t.Errorf("density map die %d power %.3f != die 0 %.3f", d, perDie[d], perDie[0])
		}
	}
}

func TestComputeDualHeterogeneous(t *testing.T) {
	hot := simulate(t, config.Baseline(), "susan_s", 60000)
	cold := simulate(t, config.Baseline(), "yacr2", 60000)
	fp := floorplan.Planar()
	mixed, err := ComputeDual(config.Baseline(), [2]*cpu.Stats{hot, cold}, fp)
	if err != nil {
		t.Fatal(err)
	}
	hotHot, err := ComputeDual(config.Baseline(), [2]*cpu.Stats{hot, hot}, fp)
	if err != nil {
		t.Fatal(err)
	}
	coldCold, err := ComputeDual(config.Baseline(), [2]*cpu.Stats{cold, cold}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !(coldCold.TotalW < mixed.TotalW && mixed.TotalW < hotHot.TotalW) {
		t.Errorf("dual power ordering violated: %.1f / %.1f / %.1f",
			coldCold.TotalW, mixed.TotalW, hotHot.TotalW)
	}
	// The mixed pair must be exactly midway in dynamic power (linear
	// composition of the two cores).
	want := (hotHot.DynamicW + coldCold.DynamicW) / 2
	if diff := mixed.DynamicW - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mixed dynamic %.4f W != average %.4f W", mixed.DynamicW, want)
	}
	// Per-core attribution: core 0 (hot) must dissipate more than
	// core 1 (cold) in the mixed breakdown.
	var core0, core1 float64
	for k, w := range mixed.UnitW {
		switch k.Core {
		case 0:
			core0 += w
		case 1:
			core1 += w
		}
	}
	if core0 <= core1 {
		t.Errorf("hot core power (%.2f W) not above cold core (%.2f W)", core0, core1)
	}
}

func TestComputeDualRejectsNil(t *testing.T) {
	s := simulate(t, config.Baseline(), "gzip", 5000)
	if _, err := ComputeDual(config.Baseline(), [2]*cpu.Stats{s, nil}, floorplan.Planar()); err == nil {
		t.Error("nil core stats accepted")
	}
}
