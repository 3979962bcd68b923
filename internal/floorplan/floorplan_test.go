package floorplan

import (
	"math"
	"strings"
	"testing"
)

func TestPlanarValidates(t *testing.T) {
	fp := Planar()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if fp.NumDies != 1 {
		t.Errorf("planar dies = %d, want 1", fp.NumDies)
	}
}

func TestStackedValidates(t *testing.T) {
	fp := Stacked()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if fp.NumDies != 4 {
		t.Errorf("stacked dies = %d, want 4", fp.NumDies)
	}
}

func TestStackedFootprintQuarter(t *testing.T) {
	p, s := Planar(), Stacked()
	planarArea := p.ChipW * p.ChipH
	stackedArea := s.ChipW * s.ChipH
	if math.Abs(stackedArea-planarArea/4) > 1e-9 {
		t.Errorf("3D footprint = %.2f mm², want %.2f (quarter of planar)",
			stackedArea, planarArea/4)
	}
}

func TestPlanarHasAllBlocksPerCore(t *testing.T) {
	fp := Planar()
	for core := 0; core < 2; core++ {
		for _, b := range CoreBlocks() {
			if _, ok := fp.Find(b, core, 0); !ok {
				t.Errorf("planar missing block %v on core %d", b, core)
			}
		}
	}
	if _, ok := fp.Find(BlkL2, SharedCore, 0); !ok {
		t.Error("planar missing shared L2")
	}
}

func TestStackedReplicatesAcrossDies(t *testing.T) {
	fp := Stacked()
	for die := 0; die < 4; die++ {
		for core := 0; core < 2; core++ {
			for _, b := range CoreBlocks() {
				if _, ok := fp.Find(b, core, die); !ok {
					t.Errorf("stacked missing block %v core %d die %d", b, core, die)
				}
			}
		}
		if _, ok := fp.Find(BlkL2, SharedCore, die); !ok {
			t.Errorf("stacked missing L2 on die %d", die)
		}
	}
}

func TestUnitsFillDie(t *testing.T) {
	// Core layout should tile the 6×6 core exactly; with two cores and
	// the L2, unit area should equal the full chip area.
	p := Planar()
	chipArea := p.ChipW * p.ChipH
	if got := p.TotalArea(0); math.Abs(got-chipArea) > 1e-9 {
		t.Errorf("planar unit area = %.3f, chip = %.3f (gaps or overlaps)", got, chipArea)
	}
	s := Stacked()
	dieArea := s.ChipW * s.ChipH
	for die := 0; die < 4; die++ {
		if got := s.TotalArea(die); math.Abs(got-dieArea) > 1e-9 {
			t.Errorf("stacked die %d unit area = %.3f, die = %.3f", die, got, dieArea)
		}
	}
}

func TestOverlapDetection(t *testing.T) {
	a := Unit{Block: BlkROB, Die: 0, X: 0, Y: 0, W: 2, H: 2}
	b := Unit{Block: BlkRS, Die: 0, X: 1, Y: 1, W: 2, H: 2}
	if !a.Overlaps(b) {
		t.Error("overlapping units not detected")
	}
	c := Unit{Block: BlkRS, Die: 0, X: 2, Y: 0, W: 2, H: 2} // shares an edge only
	if a.Overlaps(c) {
		t.Error("edge-adjacent units reported as overlapping")
	}
	d := Unit{Block: BlkRS, Die: 1, X: 0, Y: 0, W: 2, H: 2}
	if a.Overlaps(d) {
		t.Error("units on different dies reported as overlapping")
	}
}

func TestValidateCatchesOutOfBounds(t *testing.T) {
	fp := &Floorplan{Name: "bad", ChipW: 4, ChipH: 4, NumDies: 1,
		Units: []Unit{{Block: BlkROB, Die: 0, X: 3, Y: 0, W: 2, H: 1}}}
	if err := fp.Validate(); err == nil {
		t.Error("out-of-bounds unit not rejected")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	fp := &Floorplan{Name: "bad", ChipW: 4, ChipH: 4, NumDies: 1,
		Units: []Unit{
			{Block: BlkROB, Die: 0, X: 0, Y: 0, W: 2, H: 2},
			{Block: BlkRS, Die: 0, X: 1, Y: 1, W: 2, H: 2},
		}}
	if err := fp.Validate(); err == nil {
		t.Error("overlap not rejected")
	}
}

func TestValidateCatchesBadDie(t *testing.T) {
	fp := &Floorplan{Name: "bad", ChipW: 4, ChipH: 4, NumDies: 1,
		Units: []Unit{{Block: BlkROB, Die: 2, X: 0, Y: 0, W: 1, H: 1}}}
	if err := fp.Validate(); err == nil {
		t.Error("invalid die index not rejected")
	}
}

func TestBlockNames(t *testing.T) {
	if BlkRS.String() != "rs" || BlkDCache.String() != "dcache" || BlkL2.String() != "l2" {
		t.Error("block names wrong")
	}
	if BlockID(200).String() == "" {
		t.Error("out-of-range block has empty name")
	}
	seen := map[string]bool{}
	for b := BlockID(0); b < NumBlocks; b++ {
		n := b.String()
		if n == "" || seen[n] {
			t.Errorf("block %d has empty or duplicate name %q", b, n)
		}
		seen[n] = true
	}
}

func TestUnitsOnPartition(t *testing.T) {
	s := Stacked()
	total := 0
	for die := 0; die < 4; die++ {
		total += len(s.UnitsOn(die))
	}
	if total != len(s.Units) {
		t.Errorf("per-die partition covers %d units, floorplan has %d", total, len(s.Units))
	}
}

func TestCoreBlocksExcludesL2(t *testing.T) {
	for _, b := range CoreBlocks() {
		if b == BlkL2 {
			t.Error("CoreBlocks includes the shared L2")
		}
	}
	if len(CoreBlocks()) != int(NumBlocks)-1 {
		t.Errorf("CoreBlocks has %d entries, want %d", len(CoreBlocks()), int(NumBlocks)-1)
	}
}

func TestRenderPlanar(t *testing.T) {
	out := Planar().Render(0, 48, 24)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 26 { // header + 24 rows + legend
		t.Fatalf("render has %d lines, want 26", len(lines))
	}
	// Both cores and the L2 appear: upper case, lower case, '#'.
	body := strings.Join(lines[1:25], "")
	if !strings.Contains(body, "S") || !strings.Contains(body, "s") {
		t.Error("render missing RS glyphs for both cores")
	}
	if !strings.Contains(body, "#") {
		t.Error("render missing the shared L2")
	}
	if !strings.Contains(lines[25], "S=rs") {
		t.Errorf("legend missing RS entry: %q", lines[25])
	}
}

func TestRenderStackedDies(t *testing.T) {
	fp := Stacked()
	for d := 0; d < 4; d++ {
		out := fp.Render(d, 32, 16)
		if !strings.Contains(out, "die "+string(rune('0'+d))) {
			t.Errorf("render header missing die %d", d)
		}
		if !strings.Contains(out, "#") {
			t.Errorf("die %d render missing L2", d)
		}
	}
}

// TestFloorplansReturnCopies checks that the floorplans are built once
// and shared safely: mutating a returned floorplan changes neither the
// next call's result nor the other floorplan.
func TestFloorplansReturnCopies(t *testing.T) {
	for _, c := range []struct {
		name string
		get  func() *Floorplan
	}{{"Planar", Planar}, {"Stacked", Stacked}} {
		want := c.get()
		fp := c.get()
		fp.Name, fp.ChipW, fp.NumDies = "clobbered", 1, 9
		for i := range fp.Units {
			fp.Units[i].W, fp.Units[i].Die = 0, 7
		}
		fp.Units = fp.Units[:1]
		got := c.get()
		if got.Name != want.Name || got.ChipW != want.ChipW || got.NumDies != want.NumDies ||
			len(got.Units) != len(want.Units) {
			t.Fatalf("%s after mutating a returned floorplan = %+v", c.name, got)
		}
		for i := range want.Units {
			if got.Units[i] != want.Units[i] {
				t.Fatalf("%s unit %d after mutating a returned floorplan = %+v, want %+v", c.name, i, got.Units[i], want.Units[i])
			}
		}
	}
}
