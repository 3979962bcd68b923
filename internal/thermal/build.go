package thermal

import (
	"fmt"
	"strings"

	"thermalherd/internal/floorplan"
)

// PowerFor supplies each floorplan unit's dissipated power in watts.
type PowerFor func(u floorplan.Unit) float64

// DefaultGrid is the lateral resolution used by the experiment harness.
const DefaultGrid = 32

// rasterize spreads each unit's power over the grid cells it covers,
// proportionally to overlap area.
func rasterize(fp *floorplan.Floorplan, die int, watts PowerFor, nx, ny int) []float64 {
	out := make([]float64, nx*ny)
	cw := fp.ChipW / float64(nx)
	ch := fp.ChipH / float64(ny)
	for _, u := range fp.Units {
		if u.Die != die {
			continue
		}
		w := watts(u)
		if w == 0 {
			continue
		}
		density := w / u.Area()
		x0 := int(u.X / cw)
		x1 := int((u.X + u.W) / cw)
		y0 := int(u.Y / ch)
		y1 := int((u.Y + u.H) / ch)
		for y := y0; y <= y1 && y < ny; y++ {
			for x := x0; x <= x1 && x < nx; x++ {
				// Overlap of cell (x,y) with the unit rectangle.
				ox := overlap(float64(x)*cw, float64(x+1)*cw, u.X, u.X+u.W)
				oy := overlap(float64(y)*ch, float64(y+1)*ch, u.Y, u.Y+u.H)
				if ox > 0 && oy > 0 {
					out[y*nx+x] += density * ox * oy
				}
			}
		}
	}
	return out
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi > lo {
		return hi - lo
	}
	return 0
}

// Build constructs the thermal stack for a floorplan of any die count:
// spreader, TIM, then for each die a silicon layer carrying its power
// map, separated by die-to-die via-field interface layers. Die 0 is the
// top die, adjacent to the heat sink through the TIM, and keeps its
// bulk thickness; the dies below it are thinned, exactly as the Thermal
// Herding organization assumes. A planar floorplan's single die layer
// is named "die", a stack's are "die0", "die1", ….
func Build(fp *floorplan.Floorplan, watts PowerFor, nx, ny int) (*Stack, error) {
	if fp.NumDies < 1 {
		return nil, fmt.Errorf("thermal: floorplan %s has %d dies", fp.Name, fp.NumDies)
	}
	s := &Stack{
		Nx: nx, Ny: ny,
		CellW:   fp.ChipW / float64(nx) * 1e-3, // floorplan mm → m
		CellH:   fp.ChipH / float64(ny) * 1e-3,
		SinkR:   SinkRTotal,
		Ambient: AmbientK,
	}
	s.Layers = append(s.Layers,
		Layer{Name: "spreader", Thickness: SpreaderThickness, K: KCopper},
		Layer{Name: "tim", Thickness: TIMThickness, K: KTIM},
	)
	for d := 0; d < fp.NumDies; d++ {
		name, thickness := fmt.Sprintf("die%d", d), BulkDieThickness
		if fp.NumDies == 1 {
			name = "die"
		}
		if d > 0 {
			thickness = ThinDieThickness
			s.Layers = append(s.Layers, Layer{Name: fmt.Sprintf("d2d%d", d-1), Thickness: D2DThickness, K: KD2D})
		}
		s.Layers = append(s.Layers, Layer{Name: name, Thickness: thickness, K: KSilicon, Power: rasterize(fp, d, watts, nx, ny)})
	}
	return s, nil
}

// BuildPlanar is Build for the 1-die planar floorplan; any other die
// count is an error.
func BuildPlanar(fp *floorplan.Floorplan, watts PowerFor, nx, ny int) (*Stack, error) {
	if fp.NumDies != 1 {
		return nil, fmt.Errorf("thermal: BuildPlanar wants a 1-die floorplan, got %d", fp.NumDies)
	}
	return Build(fp, watts, nx, ny)
}

// BuildStacked is Build for the 4-die 3D floorplan; any other die
// count is an error.
func BuildStacked(fp *floorplan.Floorplan, watts PowerFor, nx, ny int) (*Stack, error) {
	if fp.NumDies != 4 {
		return nil, fmt.Errorf("thermal: BuildStacked wants a 4-die floorplan, got %d", fp.NumDies)
	}
	return Build(fp, watts, nx, ny)
}

// DieLayerIndex returns the layer index of die d in a stack built by
// Build.
func DieLayerIndex(d int) int { return 2 + 2*d }

// HottestUnit locates the floorplan unit containing the solution's peak
// cell, attributing the hotspot to a microarchitectural block as the
// paper's Figure 10 annotations do. dieOfLayer maps a solution layer
// index back to a floorplan die (use LayerDie).
func HottestUnit(sol *Solution, fp *floorplan.Floorplan) (floorplan.Unit, float64, bool) {
	peak, layer, x, y := sol.Peak()
	die := LayerDie(sol.Stack, layer)
	if die < 0 {
		return floorplan.Unit{}, peak, false
	}
	// Cell centre in floorplan coordinates (mm).
	cx := (float64(x) + 0.5) * fp.ChipW / float64(sol.Stack.Nx)
	cy := (float64(y) + 0.5) * fp.ChipH / float64(sol.Stack.Ny)
	for _, u := range fp.Units {
		if u.Die == die && cx >= u.X && cx < u.X+u.W && cy >= u.Y && cy < u.Y+u.H {
			return u, peak, true
		}
	}
	return floorplan.Unit{}, peak, false
}

// LayerDie maps a layer index to its floorplan die index, or -1 for
// passive layers.
func LayerDie(s *Stack, layer int) int {
	name := s.Layers[layer].Name
	switch {
	case name == "die":
		return 0
	case strings.HasPrefix(name, "die"):
		return int(name[3] - '0')
	}
	return -1
}

// PeakOfUnit returns the peak temperature within one floorplan unit's
// footprint on its die's layer.
func PeakOfUnit(sol *Solution, fp *floorplan.Floorplan, u floorplan.Unit) float64 {
	layer := -1
	for l := range sol.Stack.Layers {
		if LayerDie(sol.Stack, l) == u.Die {
			layer = l
			break
		}
	}
	if layer < 0 {
		return sol.Stack.Ambient
	}
	cw := fp.ChipW / float64(sol.Stack.Nx)
	ch := fp.ChipH / float64(sol.Stack.Ny)
	return sol.MaxOverCells(layer, func(x, y int) bool {
		cx := (float64(x) + 0.5) * cw
		cy := (float64(y) + 0.5) * ch
		return cx >= u.X && cx < u.X+u.W && cy >= u.Y && cy < u.Y+u.H
	})
}

// RenderLayer draws an ASCII heat map of one layer, normalizing shades
// between the given temperature bounds.
func (sol *Solution) RenderLayer(l int, minK, maxK float64) string {
	const ramp = " .:-=+*#%@"
	var b strings.Builder
	fmt.Fprintf(&b, "layer %s  [%.1fK .. %.1fK]\n", sol.Stack.Layers[l].Name, minK, maxK)
	for y := 0; y < sol.Stack.Ny; y++ {
		for x := 0; x < sol.Stack.Nx; x++ {
			t := sol.At(l, x, y)
			f := (t - minK) / (maxK - minK)
			idx := int(f * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
