// Package power computes per-unit and total power from the timing
// model's activity counters, the circuit model's per-access energies,
// and the paper's Section 4 assumptions: the baseline 2D processor
// dissipates 35% of its power in the clock network and 20% in leakage;
// the 3D organization halves clock power (footprint quartered,
// conservatively credited as half); 3D and Thermal Herding do not reduce
// leakage.
//
// The output is both a scalar breakdown (Figure 9 totals) and a per-
// floorplan-unit power map feeding the thermal solver (Figure 10).
package power

import (
	"fmt"
	"math"

	"thermalherd/internal/circuit"
	"thermalherd/internal/config"
	"thermalherd/internal/core"
	"thermalherd/internal/cpu"
	"thermalherd/internal/floorplan"
)

// Calibration constants. The paper's reference point: two copies of the
// MediaBench Mpeg2 encoder on the planar two-core processor dissipate
// 90 W total. EnergyScale multiplies the circuit model's per-access
// energies to land the dynamic component of that reference point;
// RefTotal2D anchors the 35%/20% clock/leakage split in watts.
const (
	EnergyScale = 2.88
	RefTotal2D  = 90.0 // W, two cores, mpeg2enc
	ClockFrac   = 0.35
	LeakFrac    = 0.20

	// Clock3DFactor: "we conservatively reduce its power consumption
	// by 1/2 for the 3D processor configurations."
	Clock3DFactor = 0.5
)

// ClockW2D is the planar clock network power at the baseline frequency.
func ClockW2D() float64 { return ClockFrac * RefTotal2D }

// LeakageW is the leakage power, unchanged across all configurations.
func LeakageW() float64 { return LeakFrac * RefTotal2D }

// Breakdown is the computed power of one configuration running one
// workload on both cores.
type Breakdown struct {
	Config   string
	Workload string

	// DynamicW is switching power in the microarchitectural blocks;
	// ClockW the clock network; LeakageW leakage; TotalW their sum.
	DynamicW float64
	ClockW   float64
	LeakageW float64
	TotalW   float64

	// BlockW is dynamic power per block summed over cores and die.
	BlockW [floorplan.NumBlocks]float64
	// UnitW maps every floorplan unit (block × core × die) to its
	// total dissipated power including its share of clock and leakage
	// — the thermal solver's input. Read it through Watts.
	UnitW map[UnitKey]float64
}

// UnitKey identifies a floorplan unit.
type UnitKey struct {
	Block floorplan.BlockID
	Core  int
	Die   int
}

// FloorplanFor returns the floorplan cfg is implemented on: the 4-die
// stack for a 3D machine, the planar layout otherwise. The caller owns
// the result.
func FloorplanFor(cfg config.Machine) *floorplan.Floorplan {
	if cfg.ThreeD {
		return floorplan.Stacked()
	}
	return floorplan.Planar()
}

// Watts returns unit u's dissipated power. Its method value is the
// thermal solver's per-unit power input (a thermal.PowerFor).
func (b *Breakdown) Watts(u floorplan.Unit) float64 {
	return b.UnitW[UnitKey{u.Block, u.Core, u.Die}]
}

// Compute derives the power breakdown for cfg running the workload whose
// per-core statistics are s on both cores, the paper's two-instance
// setup. ComputeDual supports heterogeneous pairings.
func Compute(cfg config.Machine, s *cpu.Stats, fp *floorplan.Floorplan) (*Breakdown, error) {
	return ComputeDual(cfg, [2]*cpu.Stats{s, s}, fp)
}

// ComputeDual derives the power breakdown for cfg with a (possibly
// different) workload on each core.
func ComputeDual(cfg config.Machine, s [2]*cpu.Stats, fp *floorplan.Floorplan) (*Breakdown, error) {
	for coreIdx := range s {
		if s[coreIdx] == nil || s[coreIdx].Cycles == 0 {
			return nil, fmt.Errorf("power: core %d statistics cover zero cycles", coreIdx)
		}
	}
	if cfg.ThreeD != (fp.NumDies == 4) {
		return nil, fmt.Errorf("power: config %s (3D=%v) mismatched with floorplan %s",
			cfg.Name, cfg.ThreeD, fp.Name)
	}
	b := &Breakdown{Config: cfg.Name, UnitW: make(map[UnitKey]float64, len(fp.Units))}

	// Dynamic power per block and core. Watts = (accesses/cycle) ×
	// f[GHz] × E[pJ] / 1000.
	for coreIdx, cs := range s {
		for blk := floorplan.BlockID(0); blk < floorplan.NumBlocks; blk++ {
			e := circuit.EnergyFor(blk)
			if cfg.ThreeD {
				// Per-die word activity: each activated die burns a
				// quarter of the (wire-reduced) 3D access energy.
				perWord := e.PerDieWord3D() * EnergyScale
				for d := 0; d < core.NumDies; d++ {
					wpc := float64(cs.BlockDie[blk].Words[d]) / float64(cs.Cycles)
					w := wpc * cfg.ClockGHz * perWord / 1000
					b.addUnit(blk, coreIdx, d, w)
					b.BlockW[blk] += w
				}
			} else {
				apc := float64(cs.BlockAccesses[blk]) / float64(cs.Cycles)
				w := apc * cfg.ClockGHz * e.PerAccess2D() * EnergyScale / 1000
				b.addUnit(blk, coreIdx, 0, w)
				b.BlockW[blk] += w
			}
		}
	}
	for _, w := range b.BlockW {
		b.DynamicW += w
	}

	// Clock network power scales with frequency; 3D additionally gets
	// the paper's conservative capacitance halving, anchored so the
	// stock 3.93 GHz 3D design dissipates exactly half the planar
	// baseline's clock power.
	switch {
	case cfg.ThreeD:
		b.ClockW = ClockW2D() * Clock3DFactor * cfg.ClockGHz / config.ThreeDClockGHz
	default:
		b.ClockW = ClockW2D() * cfg.ClockGHz / config.BaseClockGHz
	}
	b.LeakageW = LeakageW()
	b.TotalW = b.DynamicW + b.ClockW + b.LeakageW

	// Clock and leakage are chip-wide: spread them over the units in
	// proportion to area.
	overhead, area := b.ClockW+b.LeakageW, totalArea(fp)
	for _, u := range fp.Units {
		b.UnitW[UnitKey{u.Block, u.Core, u.Die}] += overhead * u.Area() / area
	}
	return b, nil
}

// addUnit attributes watts to the unit holding the block for one core on
// one die; the shared L2 pools both cores' contributions.
func (b *Breakdown) addUnit(blk floorplan.BlockID, coreIdx, die int, watts float64) {
	if blk == floorplan.BlkL2 {
		b.UnitW[UnitKey{blk, floorplan.SharedCore, die}] += watts
		return
	}
	b.UnitW[UnitKey{blk, coreIdx, die}] += watts
}

// totalArea sums fp's unit areas in fp.Units order.
func totalArea(fp *floorplan.Floorplan) float64 {
	var a float64
	for _, u := range fp.Units {
		a += u.Area()
	}
	return a
}

// UnitTotal sums the per-unit map over fp's units (equals TotalW up to
// rounding). It visits units in fp.Units order, never map order, so the
// sum is the same bits on every call.
func (b *Breakdown) UnitTotal(fp *floorplan.Floorplan) float64 {
	var t float64
	for _, u := range fp.Units {
		t += b.Watts(u)
	}
	return t
}

// RescaleLeakage writes into dst each of fp's units' power with its
// leakage share (LeakageW in proportion to area) multiplied by
// scale(u), and returns the rescaled total leakage. Units are visited
// in fp.Units order, so the total is the same bits on every call.
func (b *Breakdown) RescaleLeakage(fp *floorplan.Floorplan, scale func(floorplan.Unit) float64, dst map[UnitKey]float64) float64 {
	var total float64
	area := totalArea(fp)
	for _, u := range fp.Units {
		leak := b.LeakageW * u.Area() / area
		scaled := leak * scale(u)
		dst[UnitKey{u.Block, u.Core, u.Die}] = b.Watts(u) - leak + scaled
		total += scaled
	}
	return total
}

// Saving returns the fractional total-power saving of b relative to
// base.
func (b *Breakdown) Saving(base *Breakdown) float64 {
	return 1 - b.TotalW/base.TotalW
}

// Temperature-dependent leakage: subthreshold leakage grows roughly
// exponentially with temperature. LeakageRefK is the temperature at
// which the paper's 20% leakage share is taken (a hot 85 C chip);
// LeakageBeta is the per-kelvin exponential coefficient.
const (
	LeakageRefK = 358.0
	LeakageBeta = 0.02
)

// LeakageScaleAt returns the multiplicative leakage factor at tempK
// relative to the reference temperature.
func LeakageScaleAt(tempK float64) float64 {
	return math.Exp(LeakageBeta * (tempK - LeakageRefK))
}

// DensityStudyMap returns the per-unit power of the paper's Section
// 5.3 power-density experiment on the stacked floorplan: the planar
// processor's 90 W at 2.66 GHz forced into the 3D stack — each block's
// planar power is divided evenly across its die instances on the
// quarter footprint, quadrupling power density while ignoring 3D's
// latency and power benefits.
func DensityStudyMap(planar *Breakdown, stacked *floorplan.Floorplan) func(floorplan.Unit) float64 {
	return func(u floorplan.Unit) float64 {
		u.Die = 0
		return planar.Watts(u) / float64(stacked.NumDies)
	}
}
