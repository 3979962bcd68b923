package config

import (
	"testing"

	"thermalherd/internal/core"
)

func TestAllConfigsValidate(t *testing.T) {
	cfgs := append(AllConfigs(), ThreeDNoTH())
	for _, m := range cfgs {
		if err := m.Validate(); err != nil {
			t.Errorf("config %s invalid: %v", m.Name, err)
		}
	}
}

func TestConfigNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(AllConfigs(), ThreeDNoTH()) {
		if seen[m.Name] {
			t.Errorf("duplicate config name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestBaselineMatchesTable1(t *testing.T) {
	m := Baseline()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"fetch", m.FetchWidth, 4},
		{"issue", m.IssueWidth, 6},
		{"rob", m.ROBSize, 96},
		{"rs", m.RSSize, 32},
		{"lq", m.LQSize, 32},
		{"sq", m.SQSize, 20},
		{"ifq", m.IFQSize, 16},
		{"alu", m.IntALU, 3},
		{"shift", m.IntShift, 2},
		{"muldiv", m.IntMulDiv, 1},
		{"l1", m.L1Size, 32 << 10},
		{"l1ways", m.L1Ways, 8},
		{"l1lat", m.L1Latency, 3},
		{"l2", m.L2Size, 4 << 20},
		{"l2ways", m.L2Ways, 16},
		{"l2lat", m.L2Latency, 12},
		{"itlb", m.ITLBEntries, 128},
		{"dtlb", m.DTLBEntries, 256},
		{"btb", m.BTBEntries, 2048},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Table 1)", c.name, c.got, c.want)
		}
	}
	if m.ClockGHz != BaseClockGHz {
		t.Errorf("clock = %g, want %g", m.ClockGHz, BaseClockGHz)
	}
}

func TestConfigurationDeltas(t *testing.T) {
	base := Baseline()

	th := TH()
	if !th.ThermalHerding || th.ClockGHz != base.ClockGHz {
		t.Error("TH must enable herding at baseline frequency")
	}
	if th.AllocPolicy != core.AllocHerded {
		t.Error("TH must use the herded allocator")
	}

	pipe := Pipe()
	if pipe.ThermalHerding {
		t.Error("Pipe must not enable herding")
	}
	if pipe.MispredictRedirect >= base.MispredictRedirect {
		t.Error("Pipe must shorten the mispredict redirect")
	}
	if pipe.L2Latency >= base.L2Latency {
		t.Error("Pipe must shorten the L2 latency")
	}
	if pipe.FPLoadExtraCycle != 0 {
		t.Error("Pipe must remove the FP-load routing cycle")
	}
	if pipe.ClockGHz != base.ClockGHz {
		t.Error("Pipe stays at the baseline frequency")
	}

	fast := Fast()
	if fast.ClockGHz != ThreeDClockGHz {
		t.Error("Fast must run at the 3D frequency")
	}
	if fast.MispredictRedirect != base.MispredictRedirect || fast.L2Latency != base.L2Latency {
		t.Error("Fast must be microarchitecturally identical to Base")
	}

	threeD := ThreeD()
	if !threeD.ThermalHerding || !threeD.ThreeD {
		t.Error("3D must combine herding and stacking")
	}
	if threeD.ClockGHz != ThreeDClockGHz {
		t.Error("3D must run at the 3D frequency")
	}
	if threeD.MispredictRedirect != pipe.MispredictRedirect || threeD.L2Latency != pipe.L2Latency {
		t.Error("3D must include the pipeline optimizations")
	}

	noTH := ThreeDNoTH()
	if noTH.ThermalHerding || !noTH.ThreeD {
		t.Error("3D-noTH must stack without herding")
	}
}

func TestDRAMCyclesScaleWithClock(t *testing.T) {
	base := Baseline()
	fast := Fast()
	if fast.DRAMCycles() <= base.DRAMCycles() {
		t.Errorf("Fast DRAM cycles (%d) must exceed Base (%d): same nanoseconds, faster clock",
			fast.DRAMCycles(), base.DRAMCycles())
	}
	// 60 ns at 2.66 GHz ≈ 160 cycles.
	if got := base.DRAMCycles(); got < 155 || got > 165 {
		t.Errorf("base DRAM cycles = %d, want ≈ 160", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Machine){
		func(m *Machine) { m.ClockGHz = 0 },
		func(m *Machine) { m.FetchWidth = 0 },
		func(m *Machine) { m.ROBSize = 0 },
		func(m *Machine) { m.RSSize = 30 }, // not divisible across 4 die
		func(m *Machine) { m.L2Latency = m.L1Latency },
		func(m *Machine) { m.IFQSize = 0 },
	}
	for i, mut := range mutations {
		m := Baseline()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestConfigErrorMessage(t *testing.T) {
	e := &ConfigError{Config: "X", Reason: "bad"}
	if e.Error() != "config X: bad" {
		t.Errorf("unexpected error text %q", e.Error())
	}
}

// TestRegistryReturnsCopy checks that the registry is built once and
// shared safely: mutating the slice Registry returns changes neither
// the next call's result nor ByName.
func TestRegistryReturnsCopy(t *testing.T) {
	want := Registry()
	r := Registry()
	r[0].Name, r[0].L2Size, r[len(r)-1].ClockGHz = "clobbered", 1, 0
	got := Registry()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Registry()[%d] after mutating a returned slice = %+v, want %+v", i, got[i], want[i])
		}
	}
	if m, err := ByName("Base"); err != nil || m != Baseline() {
		t.Errorf("ByName(Base) after mutating Registry()'s slice = %+v, %v", m, err)
	}
}
