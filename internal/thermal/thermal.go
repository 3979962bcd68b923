// Package thermal is a steady-state compact thermal model standing in
// for the HotSpot 3.0.2 simulations of the paper's Section 4: a
// finite-difference RC network over a layered die stack, solved
// directly. Every layer is laterally uniform with zero-flux edges, so a
// 2-D discrete cosine transform of each layer splits the network into
// independent lateral modes, and each mode is one tridiagonal system
// over the layers, solved exactly (see solver).
//
// The modelled stack, from the heat sink downward, matches the paper's
// assumptions: a copper heat spreader, a phase-change metallic-alloy
// thermal interface material, then the silicon die — one for the planar
// processor, four for the 3D processor with die-to-die interface layers
// whose effective conductivity reflects a fully populated via field at
// 25% copper / 75% air occupancy. The bottom of the stack (package side)
// is treated as adiabatic, so all heat exits through the sink, the
// worst-case assumption for a 3D stack.
package thermal

import "fmt"

// Material and boundary constants.
const (
	// KSilicon is bulk silicon conductivity near operating temperature
	// (W/m·K).
	KSilicon = 110.0
	// KCopper is the heat spreader conductivity.
	KCopper = 395.0
	// KTIM is the phase-change metallic alloy TIM the paper assumes.
	KTIM = 30.0
	// KD2D is the effective conductivity of a die-to-die interface with
	// a fully populated via field: 25% copper, 75% air.
	KD2D = 0.25*KCopper + 0.75*0.026
	// AmbientK is the ambient temperature (HotSpot's default 45 C).
	AmbientK = 318.15
)

// Default layer thicknesses in metres.
const (
	SpreaderThickness = 2.0e-3
	TIMThickness      = 50e-6
	BulkDieThickness  = 400e-6 // planar die / top die bulk silicon
	ThinDieThickness  = 30e-6  // thinned stacked die
	D2DThickness      = 15e-6  // via interface layer (5-20 um per paper)
)

// SinkRTotal is the lumped heat-sink-to-ambient resistance (K/W),
// calibrated so the planar 90 W reference lands near the paper's 360 K
// peak.
const SinkRTotal = 0.32

// Layer is one horizontal slab of the stack.
type Layer struct {
	// Name labels the layer in reports.
	Name string
	// Thickness in metres.
	Thickness float64
	// K is the thermal conductivity in W/(m·K).
	K float64
	// Power is the injected power per cell in watts (length Nx*Ny), or
	// nil for a passive layer.
	Power []float64
}

// Stack is a complete thermal problem.
type Stack struct {
	// Nx, Ny are the lateral grid dimensions.
	Nx, Ny int
	// CellW, CellH are the lateral cell dimensions in metres.
	CellW, CellH float64
	// Layers lists the slabs from the heat-sink side downward.
	Layers []Layer
	// SinkR is the lumped sink-to-ambient resistance in K/W attached
	// above layer 0.
	SinkR float64
	// Ambient is the ambient temperature in kelvin.
	Ambient float64
}

// TotalPower sums all injected power.
func (s *Stack) TotalPower() float64 {
	var p float64
	for _, l := range s.Layers {
		for _, w := range l.Power {
			p += w
		}
	}
	return p
}

// Validate checks the stack geometry.
func (s *Stack) Validate() error {
	if s.Nx <= 0 || s.Ny <= 0 {
		return fmt.Errorf("thermal: grid %dx%d invalid", s.Nx, s.Ny)
	}
	if s.CellW <= 0 || s.CellH <= 0 {
		return fmt.Errorf("thermal: non-positive cell size")
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("thermal: no layers")
	}
	if s.SinkR <= 0 {
		return fmt.Errorf("thermal: sink resistance must be positive")
	}
	n := s.Nx * s.Ny
	for _, l := range s.Layers {
		if l.Thickness <= 0 || l.K <= 0 {
			return fmt.Errorf("thermal: layer %s has non-positive thickness or conductivity", l.Name)
		}
		if l.Power != nil && len(l.Power) != n {
			return fmt.Errorf("thermal: layer %s power map has %d cells, want %d", l.Name, len(l.Power), n)
		}
	}
	return nil
}

// Solution holds the solved temperature field.
type Solution struct {
	Stack *Stack
	// T[l][y*Nx+x] is the temperature of cell (x, y) in layer l.
	T [][]float64
	// Iterations is always 0: Stack.Solve is direct and takes no
	// iterations. It stays for callers that report solver effort.
	Iterations int
}

// Solve computes the steady-state temperature field exactly, with no
// iterations: it transforms the layers that carry power into lateral
// modes, solves each mode's tridiagonal system over the layers and
// transforms every layer back (see solver).
func (s *Stack) Solve() (*Solution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sv := newSolver(s, nil)
	u := sv.powerModes(s)
	sv.solveModes(u)
	return &Solution{Stack: s, T: sv.temperatures(u, s.Ambient)}, nil
}

// Peak returns the maximum temperature anywhere in the stack and its
// location.
func (sol *Solution) Peak() (tempK float64, layer, x, y int) {
	tempK = -1
	for l := range sol.T {
		for i, t := range sol.T[l] {
			if t > tempK {
				tempK = t
				layer = l
				x = i % sol.Stack.Nx
				y = i / sol.Stack.Nx
			}
		}
	}
	return tempK, layer, x, y
}

// PeakOfLayer returns the maximum temperature within one layer.
func (sol *Solution) PeakOfLayer(l int) float64 {
	peak := -1.0
	for _, t := range sol.T[l] {
		if t > peak {
			peak = t
		}
	}
	return peak
}

// MeanOfLayer returns the average temperature of one layer.
func (sol *Solution) MeanOfLayer(l int) float64 {
	var sum float64
	for _, t := range sol.T[l] {
		sum += t
	}
	return sum / float64(len(sol.T[l]))
}

// At returns the temperature of cell (x, y) in layer l.
func (sol *Solution) At(l, x, y int) float64 {
	return sol.T[l][y*sol.Stack.Nx+x]
}

// MaxOverCells returns, for layer l, the maximum temperature over the
// cells for which keep returns true. Returns the ambient temperature if
// no cell matches.
func (sol *Solution) MaxOverCells(l int, keep func(x, y int) bool) float64 {
	peak := sol.Stack.Ambient
	for y := 0; y < sol.Stack.Ny; y++ {
		for x := 0; x < sol.Stack.Nx; x++ {
			if keep(x, y) {
				if t := sol.At(l, x, y); t > peak {
					peak = t
				}
			}
		}
	}
	return peak
}
