package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"thermalherd/internal/floorplan"
)

// uniformWatts spreads total watts evenly over unit area.
func uniformWatts(fp *floorplan.Floorplan, total float64) PowerFor {
	var area float64
	for _, u := range fp.Units {
		area += u.Area()
	}
	return func(u floorplan.Unit) float64 { return total * u.Area() / area }
}

func TestSingleCellAnalytic(t *testing.T) {
	// One cell, one layer: T = ambient + P * (SinkR*N + t/(2kA)).
	s := &Stack{
		Nx: 1, Ny: 1, CellW: 0.01, CellH: 0.01,
		SinkR: 0.5, Ambient: 300,
		Layers: []Layer{{Name: "die", Thickness: 1e-3, K: 100, Power: []float64{10}}},
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	rVert := 1e-3 / (2 * 100.0 * 0.01 * 0.01)
	want := 300 + 10*(0.5+rVert)
	if got := sol.T[0][0]; math.Abs(got-want) > 0.01 {
		t.Errorf("analytic single cell: got %.3f K, want %.3f K", got, want)
	}
}

// randomWatts gives every unit a random power density, so the map is
// far from uniform, scaled to total watts.
func randomWatts(fp *floorplan.Floorplan, total float64, seed int64) PowerFor {
	rng := rand.New(rand.NewSource(seed))
	density := make(map[floorplan.Unit]float64, len(fp.Units))
	var sum float64
	for _, u := range fp.Units {
		density[u] = 0.1 + rng.Float64()
		sum += density[u] * u.Area()
	}
	return func(u floorplan.Unit) float64 { return total * density[u] * u.Area() / sum }
}

// buildRandom builds the planar or stacked stack at grid g with a
// random power map.
func buildRandom(t testing.TB, stacked bool, g int) *Stack {
	t.Helper()
	fp, build := floorplan.Planar(), BuildPlanar
	if stacked {
		fp, build = floorplan.Stacked(), BuildStacked
	}
	s, err := build(fp, randomWatts(fp, 90, int64(g)), g, g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnergyConservation(t *testing.T) {
	for _, tc := range []struct {
		stacked bool
		grid    int
	}{{false, 16}, {true, 32}} {
		s := buildRandom(t, tc.stacked, tc.grid)
		sol, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		// All heat must exit through the sink: sum over top-layer cells
		// of gSink*(T - ambient) == total power.
		n := s.Nx * s.Ny
		cellArea := s.CellW * s.CellH
		rSinkCell := s.SinkR*float64(n) + s.Layers[0].Thickness/(2*s.Layers[0].K*cellArea)
		var out float64
		for _, temp := range sol.T[0] {
			out += (temp - s.Ambient) / rSinkCell
		}
		if rel := math.Abs(out-90) / 90; rel > 1e-7 {
			t.Errorf("stacked=%v grid %d: heat out of sink = %.9f W, want 90 (relative error %.2g)",
				tc.stacked, tc.grid, out, rel)
		}
	}
}

// TestSolveMatchesSOR checks the direct solve against the
// point-SOR reference within the tolerance perfbench's golden check
// grants an SOR result: 10·tol·ρ/(1−ρ), ρ being the per-sweep
// contraction that shrinks SOR's 20 K start offset to its 1e-5 K
// tolerance in the sweeps it took.
func TestSolveMatchesSOR(t *testing.T) {
	for _, stacked := range []bool{false, true} {
		for _, g := range []int{8, 16, 32} {
			t.Run(fmt.Sprintf("stacked=%v/grid%d", stacked, g), func(t *testing.T) {
				s := buildRandom(t, stacked, g)
				ref, err := sorSolve(s)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := s.Solve()
				if err != nil {
					t.Fatal(err)
				}
				rho := math.Pow(1e-5/20, 1/float64(max(ref.Iterations, 1)))
				tol := 10 * 1e-5 * rho / (1 - rho)
				var worst float64
				for l := range sol.T {
					for i := range sol.T[l] {
						worst = math.Max(worst, math.Abs(sol.T[l][i]-ref.T[l][i]))
					}
				}
				if worst > tol {
					t.Errorf("max |direct − SOR| = %.3g K, tolerance %.3g K", worst, tol)
				}
			})
		}
	}
}

func TestHotterWhereMorePower(t *testing.T) {
	fp := floorplan.Planar()
	// All power in core 0's RS block.
	watts := func(u floorplan.Unit) float64 {
		if u.Block == floorplan.BlkRS && u.Core == 0 {
			return 30
		}
		return 0
	}
	s, err := BuildPlanar(fp, watts, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	u, peak, ok := HottestUnit(sol, fp)
	if !ok {
		t.Fatal("hotspot not attributed to a unit")
	}
	if u.Block != floorplan.BlkRS || u.Core != 0 {
		t.Errorf("hotspot at %v core %d, want RS core 0", u.Block, u.Core)
	}
	if peak <= AmbientK {
		t.Error("peak not above ambient")
	}
}

func TestStackedHeatsMoreThanPlanarAtEqualPower(t *testing.T) {
	// The Section 5.3 density observation: the same total power in the
	// quarter-footprint stack runs hotter.
	pfp := floorplan.Planar()
	sfp := floorplan.Stacked()
	const total = 90.0
	ps, err := BuildPlanar(pfp, uniformWatts(pfp, total), 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := BuildStacked(sfp, uniformWatts(sfp, total), 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	psol, err := ps.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ssol, err := ss.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pPeak, _, _, _ := psol.Peak()
	sPeak, _, _, _ := ssol.Peak()
	if sPeak <= pPeak {
		t.Errorf("stacked peak (%.1f K) not above planar (%.1f K) at equal power", sPeak, pPeak)
	}
}

func TestBottomDieHotterThanTopDie(t *testing.T) {
	// With power spread evenly, die 3 (farthest from the sink) must run
	// hotter than die 0 — the reason herding wants activity on top.
	fp := floorplan.Stacked()
	s, err := BuildStacked(fp, uniformWatts(fp, 60), 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	top := sol.MeanOfLayer(DieLayerIndex(0))
	bottom := sol.MeanOfLayer(DieLayerIndex(3))
	if bottom <= top {
		t.Errorf("bottom die (%.2f K) not hotter than top die (%.2f K)", bottom, top)
	}
}

func TestHerdingToTopDieReducesPeak(t *testing.T) {
	// Moving the same power toward the top die must reduce the stack's
	// peak temperature — the core thermal claim of the paper.
	fp := floorplan.Stacked()
	build := func(topShare float64) float64 {
		perDie := [4]float64{topShare, (1 - topShare) / 3, (1 - topShare) / 3, (1 - topShare) / 3}
		var area float64
		for _, u := range fp.UnitsOn(0) {
			area += u.Area()
		}
		watts := func(u floorplan.Unit) float64 {
			return 60 * perDie[u.Die] * u.Area() / area
		}
		s, err := BuildStacked(fp, watts, 24, 24)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		peak, _, _, _ := sol.Peak()
		return peak
	}
	herded := build(0.70)  // most power on the top die
	uniform := build(0.25) // evenly spread
	if herded >= uniform {
		t.Errorf("herded peak (%.2f K) not below uniform (%.2f K)", herded, uniform)
	}
}

func TestValidateRejectsBadStacks(t *testing.T) {
	bad := []*Stack{
		{Nx: 0, Ny: 4, CellW: 1, CellH: 1, SinkR: 1, Layers: []Layer{{Name: "x", Thickness: 1, K: 1}}},
		{Nx: 4, Ny: 4, CellW: 1, CellH: 1, SinkR: 0, Layers: []Layer{{Name: "x", Thickness: 1, K: 1}}},
		{Nx: 4, Ny: 4, CellW: 1, CellH: 1, SinkR: 1},
		{Nx: 4, Ny: 4, CellW: 1, CellH: 1, SinkR: 1, Layers: []Layer{{Name: "x", Thickness: 0, K: 1}}},
		{Nx: 4, Ny: 4, CellW: 1, CellH: 1, SinkR: 1,
			Layers: []Layer{{Name: "x", Thickness: 1, K: 1, Power: []float64{1}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad stack %d accepted", i)
		}
		if _, err := s.Solve(); err == nil {
			t.Errorf("bad stack %d solved", i)
		}
	}
}

func TestBuilderRejectsWrongFloorplan(t *testing.T) {
	if _, err := BuildPlanar(floorplan.Stacked(), func(floorplan.Unit) float64 { return 0 }, 8, 8); err == nil {
		t.Error("BuildPlanar accepted a stacked floorplan")
	}
	if _, err := BuildStacked(floorplan.Planar(), func(floorplan.Unit) float64 { return 0 }, 8, 8); err == nil {
		t.Error("BuildStacked accepted a planar floorplan")
	}
}

// TestBuildLayerLayout pins the layer names, order and thicknesses
// Build gives the planar and the stacked floorplan, and that it
// rejects a floorplan without dies.
func TestBuildLayerLayout(t *testing.T) {
	zero := func(floorplan.Unit) float64 { return 0 }
	for _, c := range []struct {
		fp    *floorplan.Floorplan
		names string
		thick []float64
	}{
		{floorplan.Planar(), "spreader tim die", []float64{SpreaderThickness, TIMThickness, BulkDieThickness}},
		{floorplan.Stacked(), "spreader tim die0 d2d0 die1 d2d1 die2 d2d2 die3", []float64{
			SpreaderThickness, TIMThickness, BulkDieThickness, D2DThickness, ThinDieThickness,
			D2DThickness, ThinDieThickness, D2DThickness, ThinDieThickness}},
	} {
		s, err := Build(c.fp, zero, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for i, l := range s.Layers {
			names = append(names, l.Name)
			if l.Thickness != c.thick[i] {
				t.Errorf("%s layer %s: thickness %g, want %g", c.fp.Name, l.Name, l.Thickness, c.thick[i])
			}
		}
		if got := strings.Join(names, " "); got != c.names {
			t.Errorf("%s layers %q, want %q", c.fp.Name, got, c.names)
		}
		for d := 0; d < c.fp.NumDies; d++ {
			if got := LayerDie(s, DieLayerIndex(d)); got != d {
				t.Errorf("%s: LayerDie(DieLayerIndex(%d)) = %d", c.fp.Name, d, got)
			}
		}
	}
	empty := floorplan.Planar()
	empty.NumDies = 0
	if _, err := Build(empty, zero, 4, 4); err == nil {
		t.Error("Build accepted a floorplan with no dies")
	}
}

func TestRasterizePreservesPower(t *testing.T) {
	fp := floorplan.Stacked()
	s, err := BuildStacked(fp, uniformWatts(fp, 72), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPower(); math.Abs(got-72) > 1e-6 {
		t.Errorf("rasterized power = %.6f W, want 72", got)
	}
}

func TestLayerDieMapping(t *testing.T) {
	fp := floorplan.Stacked()
	s, _ := BuildStacked(fp, func(floorplan.Unit) float64 { return 0 }, 8, 8)
	for d := 0; d < 4; d++ {
		if got := LayerDie(s, DieLayerIndex(d)); got != d {
			t.Errorf("LayerDie(DieLayerIndex(%d)) = %d", d, got)
		}
	}
	if LayerDie(s, 0) != -1 || LayerDie(s, 1) != -1 {
		t.Error("passive layers should map to die -1")
	}
	pfp := floorplan.Planar()
	ps, _ := BuildPlanar(pfp, func(floorplan.Unit) float64 { return 0 }, 8, 8)
	if LayerDie(ps, 2) != 0 {
		t.Error("planar die layer should map to die 0")
	}
}

func TestRenderLayer(t *testing.T) {
	fp := floorplan.Planar()
	s, _ := BuildPlanar(fp, uniformWatts(fp, 50), 8, 8)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	out := sol.RenderLayer(2, AmbientK, AmbientK+60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Errorf("render has %d lines, want 9", len(lines))
	}
	if len(lines[1]) != 8 {
		t.Errorf("render row width %d, want 8", len(lines[1]))
	}
}

func TestD2DConductivityMatchesPaperAssumption(t *testing.T) {
	// 25% copper, 75% air.
	want := 0.25*KCopper + 0.75*0.026
	if math.Abs(KD2D-want) > 1e-9 {
		t.Errorf("KD2D = %.3f, want %.3f", KD2D, want)
	}
}

func TestPeakOfUnit(t *testing.T) {
	fp := floorplan.Planar()
	watts := func(u floorplan.Unit) float64 {
		if u.Block == floorplan.BlkDCache && u.Core == 1 {
			return 25
		}
		return 0
	}
	s, _ := BuildPlanar(fp, watts, 32, 32)
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := fp.Find(floorplan.BlkDCache, 1, 0)
	cold, _ := fp.Find(floorplan.BlkICache, 0, 0)
	if PeakOfUnit(sol, fp, hot) <= PeakOfUnit(sol, fp, cold) {
		t.Error("powered unit not hotter than idle distant unit")
	}
}

// sorSolve is the point successive over-relaxation solver Stack.Solve
// once used, kept as an independent reference:
// it starts every cell 20 K above ambient and sweeps with ω = 1.85
// until no cell moves by 1e-5 K.
func sorSolve(s *Stack) (*Solution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nx, ny, nl := s.Nx, s.Ny, len(s.Layers)
	n := nx * ny
	cellArea := s.CellW * s.CellH

	// Conductances.
	gx := make([]float64, nl) // lateral, x direction
	gy := make([]float64, nl)
	for l, layer := range s.Layers {
		gx[l] = layer.K * layer.Thickness * s.CellH / s.CellW
		gy[l] = layer.K * layer.Thickness * s.CellW / s.CellH
	}
	gz := make([]float64, nl-1) // vertical between layer l and l+1
	for l := 0; l < nl-1; l++ {
		r := s.Layers[l].Thickness/(2*s.Layers[l].K) + s.Layers[l+1].Thickness/(2*s.Layers[l+1].K)
		gz[l] = cellArea / r
	}
	// Sink: distributed over the top layer's cells, in series with half
	// the top layer's vertical resistance.
	rSinkCell := s.SinkR*float64(n) + s.Layers[0].Thickness/(2*s.Layers[0].K*cellArea)
	gSink := 1 / rSinkCell

	T := make([][]float64, nl)
	for l := range T {
		T[l] = make([]float64, n)
		for i := range T[l] {
			T[l][i] = s.Ambient + 20
		}
	}

	const (
		omega    = 1.85
		tol      = 1e-5
		maxIters = 200000
	)
	var iters int
	for iters = 0; iters < maxIters; iters++ {
		var maxDelta float64
		for l := 0; l < nl; l++ {
			layer := &s.Layers[l]
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					i := y*nx + x
					var gSum, flux float64
					if x > 0 {
						gSum += gx[l]
						flux += gx[l] * T[l][i-1]
					}
					if x < nx-1 {
						gSum += gx[l]
						flux += gx[l] * T[l][i+1]
					}
					if y > 0 {
						gSum += gy[l]
						flux += gy[l] * T[l][i-nx]
					}
					if y < ny-1 {
						gSum += gy[l]
						flux += gy[l] * T[l][i+nx]
					}
					if l > 0 {
						gSum += gz[l-1]
						flux += gz[l-1] * T[l-1][i]
					}
					if l < nl-1 {
						gSum += gz[l]
						flux += gz[l] * T[l+1][i]
					}
					if l == 0 {
						gSum += gSink
						flux += gSink * s.Ambient
					}
					if layer.Power != nil {
						flux += layer.Power[i]
					}
					tNew := flux / gSum
					delta := tNew - T[l][i]
					T[l][i] += omega * delta
					if d := math.Abs(delta); d > maxDelta {
						maxDelta = d
					}
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	if iters == maxIters {
		return nil, fmt.Errorf("thermal: SOR did not converge in %d iterations", maxIters)
	}
	return &Solution{Stack: s, T: T, Iterations: iters}, nil
}
