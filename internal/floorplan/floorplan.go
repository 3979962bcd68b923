// Package floorplan defines the physical layout of the simulated
// processor: the planar two-core-plus-L2 baseline of Figure 7(a) and the
// 4-die stacked 3D floorplan of Figure 7(b), whose footprint shrinks by
// ~4x because every block is word-partitioned across the four die.
//
// Dimensions are in millimetres. Coordinates follow screen convention
// (origin top-left, x right, y down). Die 0 is the top die, adjacent to
// the heat sink.
package floorplan

import (
	"fmt"
	"slices"
)

// BlockID identifies one microarchitectural block.
type BlockID uint8

// The floorplanned blocks of one core, plus the shared L2.
const (
	BlkICache BlockID = iota
	BlkITLB
	BlkBTB
	BlkBPred
	BlkDecode
	BlkIFQ
	BlkRename
	BlkROB
	BlkRS
	BlkIntExec
	BlkBypass
	BlkFPExec
	BlkLSQ
	BlkDCache
	BlkDTLB
	BlkMemCtl
	BlkL2
	NumBlocks
)

var blockNames = [NumBlocks]string{
	"icache", "itlb", "btb", "bpred", "decode", "ifq", "rename",
	"rob", "rs", "intexec", "bypass", "fpexec", "lsq", "dcache",
	"dtlb", "memctl", "l2",
}

// String returns the block's short name.
func (b BlockID) String() string {
	if b >= NumBlocks {
		return fmt.Sprintf("blk(%d)", uint8(b))
	}
	return blockNames[b]
}

// CoreBlocks lists the per-core blocks (everything except the L2).
func CoreBlocks() []BlockID {
	out := make([]BlockID, 0, NumBlocks-1)
	for b := BlockID(0); b < NumBlocks; b++ {
		if b != BlkL2 {
			out = append(out, b)
		}
	}
	return out
}

// SharedCore marks a unit not belonging to any core (the L2).
const SharedCore = -1

// Unit is one placed instance of a block: a rectangle on a specific die,
// belonging to a core (or shared).
type Unit struct {
	Block BlockID
	Core  int // 0, 1, or SharedCore
	Die   int // 0 = top die
	X, Y  float64
	W, H  float64
}

// Area returns the unit's area in mm².
func (u Unit) Area() float64 { return u.W * u.H }

// Overlaps reports whether two units on the same die overlap with
// positive area.
func (u Unit) Overlaps(v Unit) bool {
	if u.Die != v.Die {
		return false
	}
	return u.X < v.X+v.W && v.X < u.X+u.W && u.Y < v.Y+v.H && v.Y < u.Y+u.H
}

// Floorplan is a complete chip layout.
type Floorplan struct {
	Name string
	// ChipW, ChipH are the die footprint in mm.
	ChipW, ChipH float64
	// NumDies is 1 for planar, 4 for the stacked design.
	NumDies int
	// Units lists every placed block instance.
	Units []Unit
}

// coreLayout gives each per-core block's rectangle within a 6×6 mm core,
// relative to the core origin. The arrangement loosely follows the
// paper's Core 2-class floorplan: front-end at the top, scheduler and
// execution in the middle, memory at the bottom.
var coreLayout = map[BlockID][4]float64{
	// block: {x, y, w, h}
	BlkICache:  {0.0, 0.0, 2.0, 1.5},
	BlkITLB:    {2.0, 0.0, 1.0, 0.75},
	BlkBTB:     {2.0, 0.75, 1.0, 0.75},
	BlkBPred:   {3.0, 0.0, 1.0, 1.5},
	BlkDecode:  {4.0, 0.0, 2.0, 1.5},
	BlkRename:  {0.0, 1.5, 1.5, 1.0},
	BlkROB:     {1.5, 1.5, 2.0, 1.0},
	BlkRS:      {3.5, 1.5, 1.5, 1.0},
	BlkIFQ:     {5.0, 1.5, 1.0, 1.0},
	BlkIntExec: {0.0, 2.5, 2.0, 1.5},
	BlkBypass:  {2.0, 2.5, 1.0, 1.5},
	BlkFPExec:  {3.0, 2.5, 2.0, 1.5},
	BlkLSQ:     {5.0, 2.5, 1.0, 1.5},
	BlkDCache:  {0.0, 4.0, 4.0, 2.0},
	BlkDTLB:    {4.0, 4.0, 2.0, 1.0},
	BlkMemCtl:  {4.0, 5.0, 2.0, 1.0},
}

const (
	coreSize2D = 6.0 // mm, per side
	chipW2D    = 12.0
	chipH2D    = 12.0
)

// The two floorplans are built once; Planar and Stacked hand out
// copies.
var planar, stacked = buildPlanar(), buildStacked()

// Planar returns the Figure 7(a) baseline floorplan: two 6×6 mm cores
// side by side with the 4MB L2 occupying the lower half of a 12×12 mm
// die. The caller owns the result.
func Planar() *Floorplan { return planar.clone() }

// Stacked returns the Figure 7(b) 3D floorplan: the same layout
// word-partitioned across four die. Each block keeps its relative
// position but halves in each linear dimension (the ~4x footprint
// reduction), and every block instance appears on all four die. The
// caller owns the result.
func Stacked() *Floorplan { return stacked.clone() }

func (fp *Floorplan) clone() *Floorplan {
	c := *fp
	c.Units = slices.Clone(fp.Units)
	return &c
}

func buildPlanar() *Floorplan {
	fp := &Floorplan{Name: "planar-2d", ChipW: chipW2D, ChipH: chipH2D, NumDies: 1}
	for coreIdx := 0; coreIdx < 2; coreIdx++ {
		ox := float64(coreIdx) * coreSize2D
		for _, b := range CoreBlocks() {
			r := coreLayout[b]
			fp.Units = append(fp.Units, Unit{
				Block: b, Core: coreIdx, Die: 0,
				X: ox + r[0], Y: r[1], W: r[2], H: r[3],
			})
		}
	}
	fp.Units = append(fp.Units, Unit{
		Block: BlkL2, Core: SharedCore, Die: 0,
		X: 0, Y: coreSize2D, W: chipW2D, H: chipH2D - coreSize2D,
	})
	return fp
}

func buildStacked() *Floorplan {
	const scale = 0.5
	fp := &Floorplan{
		Name:    "stacked-3d",
		ChipW:   chipW2D * scale,
		ChipH:   chipH2D * scale,
		NumDies: 4,
	}
	for die := 0; die < 4; die++ {
		for coreIdx := 0; coreIdx < 2; coreIdx++ {
			ox := float64(coreIdx) * coreSize2D * scale
			for _, b := range CoreBlocks() {
				r := coreLayout[b]
				fp.Units = append(fp.Units, Unit{
					Block: b, Core: coreIdx, Die: die,
					X: ox + r[0]*scale, Y: r[1] * scale,
					W: r[2] * scale, H: r[3] * scale,
				})
			}
		}
		fp.Units = append(fp.Units, Unit{
			Block: BlkL2, Core: SharedCore, Die: die,
			X: 0, Y: coreSize2D * scale,
			W: chipW2D * scale, H: (chipH2D - coreSize2D) * scale,
		})
	}
	return fp
}

// Validate checks that all units lie within the chip and that no two
// units on the same die overlap.
func (fp *Floorplan) Validate() error {
	const eps = 1e-9
	for i, u := range fp.Units {
		if u.X < -eps || u.Y < -eps || u.X+u.W > fp.ChipW+eps || u.Y+u.H > fp.ChipH+eps {
			return fmt.Errorf("floorplan %s: unit %v (core %d, die %d) outside chip bounds",
				fp.Name, u.Block, u.Core, u.Die)
		}
		if u.Die < 0 || u.Die >= fp.NumDies {
			return fmt.Errorf("floorplan %s: unit %v on invalid die %d", fp.Name, u.Block, u.Die)
		}
		for j := i + 1; j < len(fp.Units); j++ {
			if u.Overlaps(fp.Units[j]) {
				v := fp.Units[j]
				return fmt.Errorf("floorplan %s: %v(core %d) overlaps %v(core %d) on die %d",
					fp.Name, u.Block, u.Core, v.Block, v.Core, u.Die)
			}
		}
	}
	return nil
}

// UnitsOn returns the units placed on the given die.
func (fp *Floorplan) UnitsOn(die int) []Unit {
	var out []Unit
	for _, u := range fp.Units {
		if u.Die == die {
			out = append(out, u)
		}
	}
	return out
}

// Find returns the unit for (block, core, die), or false.
func (fp *Floorplan) Find(b BlockID, core, die int) (Unit, bool) {
	for _, u := range fp.Units {
		if u.Block == b && u.Core == core && u.Die == die {
			return u, true
		}
	}
	return Unit{}, false
}

// TotalArea returns the summed unit area on one die.
func (fp *Floorplan) TotalArea(die int) float64 {
	var a float64
	for _, u := range fp.UnitsOn(die) {
		a += u.Area()
	}
	return a
}
