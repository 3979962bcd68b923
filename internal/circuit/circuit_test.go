package circuit

import (
	"math"
	"testing"

	"thermalherd/internal/floorplan"
)

func TestClockFrequenciesMatchPaper(t *testing.T) {
	f2d := ClockGHz2D()
	if math.Abs(f2d-2.66) > 0.03 {
		t.Errorf("2D clock = %.3f GHz, want ≈ 2.66", f2d)
	}
	f3d := ClockGHz3D()
	if math.Abs(f3d-3.93) > 0.06 {
		t.Errorf("3D clock = %.3f GHz, want ≈ 3.93", f3d)
	}
	gain := FrequencyGain()
	if math.Abs(gain-0.479) > 0.02 {
		t.Errorf("frequency gain = %.3f, want ≈ 0.479", gain)
	}
}

func TestCriticalLoopImprovements(t *testing.T) {
	ws, err := BlockByName("scheduler (wakeup-select loop)")
	if err != nil {
		t.Fatal(err)
	}
	if got := ws.Improvement(); math.Abs(got-0.32) > 0.02 {
		t.Errorf("wakeup-select improvement = %.3f, want ≈ 0.32", got)
	}
	ab, err := BlockByName("ALU + bypass loop")
	if err != nil {
		t.Fatal(err)
	}
	if got := ab.Improvement(); math.Abs(got-0.36) > 0.02 {
		t.Errorf("ALU+bypass improvement = %.3f, want ≈ 0.36", got)
	}
}

func TestAdderContributionIsSmall(t *testing.T) {
	// "The adder only accounts for 3% out of the 36% benefit": the
	// adder's own latency gain must be a small fraction of the loop's.
	adder, err := BlockByName("64-bit adder")
	if err != nil {
		t.Fatal(err)
	}
	loop, _ := BlockByName("ALU + bypass loop")
	adderSavedPs := adder.Latency2D() - adder.Latency3D()
	loopSavedPs := loop.Latency2D() - loop.Latency3D()
	frac := adderSavedPs / loopSavedPs
	if frac > 0.10 {
		t.Errorf("adder contributes %.3f of the loop's saving, want small (<= 0.10)", frac)
	}
	if adderSavedPs <= 0 {
		t.Error("adder must still improve in 3D")
	}
}

func TestCriticalLoopsConsumeFullCycle(t *testing.T) {
	for _, b := range Blocks() {
		if !b.CriticalLoop {
			continue
		}
		if math.Abs(b.Latency2D()-cycle2DPs) > 1e-9 {
			t.Errorf("%s 2D latency %.1f ps != cycle time %.1f ps", b.Name, b.Latency2D(), cycle2DPs)
		}
	}
}

func TestAllBlocksImproveIn3D(t *testing.T) {
	for _, b := range Blocks() {
		if b.Latency3D() >= b.Latency2D() {
			t.Errorf("%s does not improve in 3D: %.1f -> %.1f ps",
				b.Name, b.Latency2D(), b.Latency3D())
		}
		if b.Improvement() > 0.6 {
			t.Errorf("%s improvement %.2f implausibly large", b.Name, b.Improvement())
		}
	}
}

func TestArraysImproveMoreThanAdder(t *testing.T) {
	// "Large arrays (caches, register files, TLBs) observe substantial
	// latency improvements" — more than logic-dominated blocks.
	adder, _ := BlockByName("64-bit adder")
	for _, name := range []string{"register file", "L1 D-cache (32KB)", "L2 cache (4MB)", "D-TLB"} {
		b, err := BlockByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Improvement() <= adder.Improvement() {
			t.Errorf("%s improvement (%.3f) not above adder's (%.3f)",
				name, b.Improvement(), adder.Improvement())
		}
	}
}

func TestBlockByNameUnknown(t *testing.T) {
	if _, err := BlockByName("flux capacitor"); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestBlockNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Blocks() {
		if seen[b.Name] {
			t.Errorf("duplicate block name %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestViaDelayBelowOneFO4(t *testing.T) {
	if D2DViaPs >= FO4Ps {
		t.Errorf("d2d via (%g ps) must be below one FO4 (%g ps)", D2DViaPs, FO4Ps)
	}
}

func TestEnergiesCoverAllBlocks(t *testing.T) {
	seen := map[floorplan.BlockID]bool{}
	for _, e := range Energies() {
		if seen[e.Block] {
			t.Errorf("duplicate energy entry for %v", e.Block)
		}
		seen[e.Block] = true
	}
	for b := floorplan.BlockID(0); b < floorplan.NumBlocks; b++ {
		if !seen[b] {
			t.Errorf("no energy entry for block %v", b)
		}
	}
}

func TestEnergy3DBelow2D(t *testing.T) {
	for _, e := range Energies() {
		if e.PerAccess3D() >= e.PerAccess2D() {
			t.Errorf("block %v: 3D energy (%.1f pJ) not below 2D (%.1f pJ)",
				e.Block, e.PerAccess3D(), e.PerAccess2D())
		}
		if e.PerDieWord3D()*4 != e.PerAccess3D() {
			t.Errorf("block %v: die-word energy inconsistent", e.Block)
		}
	}
}

func TestEnergyForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EnergyFor(NumBlocks) did not panic")
		}
	}()
	EnergyFor(floorplan.NumBlocks)
}

func TestBypassIsMostWireIntensive(t *testing.T) {
	// Section 3.3: the bypass network is wire-dominated and benefits
	// the most from 3D energy-wise.
	byp := EnergyFor(floorplan.BlkBypass)
	for _, e := range Energies() {
		if e.Block != floorplan.BlkBypass && e.WireFrac > byp.WireFrac {
			t.Errorf("block %v wire fraction (%.2f) above bypass (%.2f)",
				e.Block, e.WireFrac, byp.WireFrac)
		}
	}
}

// TestEnergiesReturnsCopy checks that the energy table is built once
// and shared safely: mutating the slice Energies returns changes
// neither the next call's result nor EnergyFor.
func TestEnergiesReturnsCopy(t *testing.T) {
	want := Energies()
	wantL2 := EnergyFor(floorplan.BlkL2)
	e := Energies()
	for i := range e {
		e[i].PJ, e[i].Block = -1, floorplan.BlkICache
	}
	got := Energies()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Energies()[%d] after mutating a returned slice = %+v, want %+v", i, got[i], want[i])
		}
	}
	if EnergyFor(floorplan.BlkL2) != wantL2 {
		t.Error("mutating Energies()'s slice changed EnergyFor")
	}
}
