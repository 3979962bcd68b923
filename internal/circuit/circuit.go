// Package circuit is the analytical delay and energy model standing in
// for the paper's HSpice simulations of 65nm (BPTM) circuits. Each block
// latency splits into a logic component (gate delay, unchanged by 3D)
// and a wire component; 3D stacking shrinks a block's footprint, cutting
// its internal wire lengths, at the cost of a few die-to-die via
// crossings (each below one FO4, per prior 3D work the paper cites).
//
// The model regenerates Table 2 (2D vs 3D block latencies) and derives
// the paper's headline clock result: the wakeup-select and ALU+bypass
// loops bound cycle time, and their 3D latency reduction yields the
// 2.66 GHz → 3.93 GHz (+47.9%) frequency increase.
package circuit

import (
	"fmt"
	"slices"

	"thermalherd/internal/floorplan"
)

// Technology constants (65nm-class, calibrated to the paper's relative
// results rather than to absolute silicon).
const (
	// FO4Ps is one fanout-of-4 inverter delay in picoseconds.
	FO4Ps = 21.0
	// D2DViaPs is one die-to-die via crossing (< 1 FO4; Section 2.1).
	D2DViaPs = 15.0
	// CycleFO4 is the 2D cycle time in FO4s (2.66 GHz ≈ 376 ps ≈ 18 FO4).
	CycleFO4 = 17.9
)

// BlockTiming describes one pipeline block's delay decomposition.
type BlockTiming struct {
	// Name is the Table 2 row label.
	Name string
	// LogicPs is the gate-delay component, unchanged by 3D.
	LogicPs float64
	// WirePs is the 2D wire-delay component.
	WirePs float64
	// WireScale3D is the fraction of the wire component remaining
	// after 3D partitioning (footprint compaction shortens wires).
	WireScale3D float64
	// ViaCrossings is the number of d2d via hops on the 3D critical
	// path.
	ViaCrossings int
	// CriticalLoop marks the blocks the paper bolds: the cycle-time
	// limiting loops (wakeup-select, ALU+bypass).
	CriticalLoop bool
}

// Latency2D returns the planar latency in ps.
func (b BlockTiming) Latency2D() float64 { return b.LogicPs + b.WirePs }

// Latency3D returns the 3D latency in ps.
func (b BlockTiming) Latency3D() float64 {
	return b.LogicPs + b.WirePs*b.WireScale3D + float64(b.ViaCrossings)*D2DViaPs
}

// Improvement returns the fractional 2D→3D latency reduction.
func (b BlockTiming) Improvement() float64 {
	return 1 - b.Latency3D()/b.Latency2D()
}

// cycle2DPs is the planar cycle time.
const cycle2DPs = CycleFO4 * FO4Ps // ≈ 376 ps

// Blocks returns the Table 2 timing rows. The two bold critical loops
// both consume a full 2D cycle; large arrays are wire-dominated and gain
// the most from stacking, consistent with prior 3D cache studies.
func Blocks() []BlockTiming {
	return []BlockTiming{
		// Wakeup-select: tag broadcast bus + selection tree. Stacking
		// RS entries across four die quarters the broadcast bus length.
		{Name: "scheduler (wakeup-select loop)", LogicPs: 170, WirePs: cycle2DPs - 170,
			WireScale3D: 0.345, ViaCrossings: 1, CriticalLoop: true},
		// ALU + bypass: the adder is logic-dominated (only ~3% of the
		// loop's 36% gain comes from it); the bypass wires dominate and
		// quarter in length.
		{Name: "ALU + bypass loop", LogicPs: 158, WirePs: cycle2DPs - 158,
			WireScale3D: 0.305, ViaCrossings: 1, CriticalLoop: true},
		// The 64-bit adder alone: only the final carry wires shrink.
		{Name: "64-bit adder", LogicPs: 160, WirePs: 36, WireScale3D: 0.45, ViaCrossings: 1},
		// Shifter and multiplier are wire-intensive (Section 3.2).
		{Name: "64-bit shifter", LogicPs: 90, WirePs: 180, WireScale3D: 0.33, ViaCrossings: 1},
		{Name: "64-bit multiplier", LogicPs: 420, WirePs: 700, WireScale3D: 0.33, ViaCrossings: 2},
		// The word-partitioned register file (Section 3.1).
		{Name: "register file", LogicPs: 180, WirePs: 270, WireScale3D: 0.32, ViaCrossings: 1},
		// Bypass network alone.
		{Name: "bypass network", LogicPs: 60, WirePs: 260, WireScale3D: 0.27, ViaCrossings: 1},
		// Large arrays: wire-dominated word/bit lines.
		{Name: "L1 I-cache (32KB)", LogicPs: 300, WirePs: 620, WireScale3D: 0.42, ViaCrossings: 2},
		{Name: "L1 D-cache (32KB)", LogicPs: 300, WirePs: 620, WireScale3D: 0.42, ViaCrossings: 2},
		{Name: "L2 cache (4MB)", LogicPs: 700, WirePs: 3800, WireScale3D: 0.45, ViaCrossings: 3},
		{Name: "I-TLB", LogicPs: 120, WirePs: 160, WireScale3D: 0.40, ViaCrossings: 1},
		{Name: "D-TLB", LogicPs: 120, WirePs: 200, WireScale3D: 0.40, ViaCrossings: 1},
		{Name: "BTB", LogicPs: 180, WirePs: 300, WireScale3D: 0.38, ViaCrossings: 1},
		{Name: "branch predictor", LogicPs: 160, WirePs: 240, WireScale3D: 0.42, ViaCrossings: 1},
		{Name: "load/store queues", LogicPs: 170, WirePs: 250, WireScale3D: 0.34, ViaCrossings: 1},
		{Name: "ROB / physical registers", LogicPs: 190, WirePs: 300, WireScale3D: 0.35, ViaCrossings: 1},
	}
}

// BlockByName finds a Table 2 row.
func BlockByName(name string) (BlockTiming, error) {
	for _, b := range Blocks() {
		if b.Name == name {
			return b, nil
		}
	}
	return BlockTiming{}, fmt.Errorf("circuit: unknown block %q", name)
}

// ClockGHz2D returns the planar clock frequency implied by the cycle
// time (≈ 2.66 GHz).
func ClockGHz2D() float64 { return 1000 / cycle2DPs }

// ClockGHz3D returns the 3D clock frequency: the slowest critical loop's
// 3D latency sets the new cycle time (≈ 3.93 GHz, +47.9%).
func ClockGHz3D() float64 {
	var worst float64
	for _, b := range Blocks() {
		if b.CriticalLoop && b.Latency3D() > worst {
			worst = b.Latency3D()
		}
	}
	return 1000 / worst
}

// FrequencyGain returns the fractional 3D clock improvement.
func FrequencyGain() float64 { return ClockGHz3D()/ClockGHz2D() - 1 }

// ---------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------

// BlockEnergy gives the dynamic energy per access of one floorplan block
// and how 3D implementation reduces it.
type BlockEnergy struct {
	Block floorplan.BlockID
	// PJ is the planar energy per access in picojoules (calibrated so
	// the mpeg2enc workload lands near the paper's 45 W/core baseline).
	PJ float64
	// WireFrac is the fraction of that energy dissipated in wires.
	WireFrac float64
	// WireScale3D is the fraction of wire energy remaining in 3D.
	WireScale3D float64
}

// PerAccess2D returns the planar energy per access (pJ).
func (e BlockEnergy) PerAccess2D() float64 { return e.PJ }

// PerAccess3D returns the 3D energy per full (all-die) access (pJ).
func (e BlockEnergy) PerAccess3D() float64 {
	return e.PJ*(1-e.WireFrac) + e.PJ*e.WireFrac*e.WireScale3D
}

// PerDieWord3D returns the 3D energy for activating one die's 16-bit
// word slice: a quarter of the full access. Thermal Herding's gating
// saves this quantum for every die it keeps idle.
func (e BlockEnergy) PerDieWord3D() float64 { return e.PerAccess3D() / 4 }

// energies holds the per-access energy of every floorplan block, built
// once. Values are loosely proportional to block size and port count;
// wire fractions follow the wire-intensity ordering of the timing
// model.
var energies = []BlockEnergy{
	{floorplan.BlkICache, 240, 0.55, 0.45},
	{floorplan.BlkITLB, 22, 0.45, 0.42},
	{floorplan.BlkBTB, 60, 0.50, 0.40},
	{floorplan.BlkBPred, 38, 0.50, 0.44},
	{floorplan.BlkDecode, 90, 0.40, 0.50},
	{floorplan.BlkIFQ, 26, 0.35, 0.50},
	{floorplan.BlkRename, 70, 0.45, 0.45},
	{floorplan.BlkROB, 110, 0.50, 0.36},
	{floorplan.BlkRS, 170, 0.62, 0.36},
	{floorplan.BlkIntExec, 150, 0.45, 0.35},
	{floorplan.BlkBypass, 120, 0.85, 0.29},
	{floorplan.BlkFPExec, 320, 0.45, 0.35},
	{floorplan.BlkLSQ, 130, 0.58, 0.36},
	{floorplan.BlkDCache, 260, 0.55, 0.45},
	{floorplan.BlkDTLB, 30, 0.45, 0.42},
	{floorplan.BlkMemCtl, 140, 0.50, 0.50},
	{floorplan.BlkL2, 1400, 0.62, 0.47},
}

// Energies returns per-access energies for every floorplan block, in a
// slice the caller owns.
func Energies() []BlockEnergy { return slices.Clone(energies) }

// EnergyFor returns the energy entry for block b.
func EnergyFor(b floorplan.BlockID) BlockEnergy {
	for _, e := range energies {
		if e.Block == b {
			return e
		}
	}
	panic(fmt.Sprintf("circuit: no energy entry for block %v", b))
}
