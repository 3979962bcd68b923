package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thermalherd/internal/floorplan"
)

// apply sets out = (K + shift)·v cell by cell, straight from the
// network's conductances: the operator the direct solve inverts, kept
// as an independent check on its transforms.
func apply(net network, shift []float64, v, out []float64) {
	nx, ny, n := net.nx, net.ny, net.n
	for l := 0; l < net.nl; l++ {
		base := net.gz[l]
		if l > 0 {
			base += net.gz[l-1]
		} else {
			base += net.gSink
		}
		if shift != nil {
			base += shift[l]
		}
		vl := v[l*n : (l+1)*n]
		ol := out[l*n : (l+1)*n]
		gx, gy := net.gx[l], net.gy[l]
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := y*nx + x
				o := base * vl[i]
				if l > 0 {
					o -= net.gz[l-1] * v[(l-1)*n+i]
				}
				if l < net.nl-1 {
					o -= net.gz[l] * v[(l+1)*n+i]
				}
				if x > 0 {
					o += gx * (vl[i] - vl[i-1])
				}
				if x < nx-1 {
					o += gx * (vl[i] - vl[i+1])
				}
				if y > 0 {
					o += gy * (vl[i] - vl[i-nx])
				}
				if y < ny-1 {
					o += gy * (vl[i] - vl[i+nx])
				}
				ol[i] = o
			}
		}
	}
}

// checkResidual solves (K + shift)·u = b with the direct solver and
// fails t unless max|(K + shift)·u − b| ≤ 1e-9·max|b|.
func checkResidual(t *testing.T, s *Stack, shift, b []float64) {
	t.Helper()
	sv := newSolver(s, shift)
	n := sv.n
	modes := make([]float64, sv.nl*n)
	for l := 0; l < sv.nl; l++ {
		sv.forward(modes[l*n:(l+1)*n], b[l*n:(l+1)*n])
	}
	sv.solveModes(modes)
	u := make([]float64, sv.nl*n)
	for l, T := range sv.temperatures(modes, 0) {
		copy(u[l*n:], T)
	}
	ku := make([]float64, len(u))
	apply(sv.network, shift, u, ku)
	var bMax, rMax float64
	for i := range b {
		bMax = math.Max(bMax, math.Abs(b[i]))
		rMax = math.Max(rMax, math.Abs(ku[i]-b[i]))
	}
	if rMax > 1e-9*bMax {
		t.Errorf("max|K·u − b| = %.3g, max|b| = %.3g (ratio %.3g)", rMax, bMax, rMax/bMax)
	}
}

// powerVector lays s's power maps end to end, a zero block for every
// passive layer.
func powerVector(s *Stack) []float64 {
	n := s.Nx * s.Ny
	b := make([]float64, len(s.Layers)*n)
	for l, layer := range s.Layers {
		copy(b[l*n:], layer.Power)
	}
	return b
}

func TestSolveResidual(t *testing.T) {
	for _, stacked := range []bool{false, true} {
		for _, g := range []int{8, 16, 32, 64} {
			t.Run(fmt.Sprintf("stacked=%v/grid%d", stacked, g), func(t *testing.T) {
				s := buildRandom(t, stacked, g)
				checkResidual(t, s, nil, powerVector(s))
			})
		}
	}
}

// TestSolveResidualNonSquare: unequal grid dimensions and cell sides
// give the two lateral directions different bases and conductances; an
// odd dimension has a middle cell that only even modes reach.
func TestSolveResidualNonSquare(t *testing.T) {
	for _, g := range [][2]int{{24, 16}, {25, 15}} {
		t.Run(fmt.Sprintf("%dx%d", g[0], g[1]), func(t *testing.T) {
			fp := floorplan.Stacked()
			s, err := BuildStacked(fp, randomWatts(fp, 90, 7), g[0], g[1])
			if err != nil {
				t.Fatal(err)
			}
			if s.CellW == s.CellH {
				t.Fatalf("cells are square (%g m), want unequal sides", s.CellW)
			}
			checkResidual(t, s, nil, powerVector(s))
		})
	}
}

func TestSolveResidualSingleCell(t *testing.T) {
	fp := floorplan.Stacked()
	s, err := BuildStacked(fp, randomWatts(fp, 90, 1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, s, nil, powerVector(s))
}

// TestSolveResidualTransientShift checks a backward-Euler system,
// (K + C/dt)·u = b, with a right-hand side in every layer as a
// transient step has.
func TestSolveResidualTransientShift(t *testing.T) {
	s := buildRandom(t, true, 16)
	shift := make([]float64, len(s.Layers))
	for l := range s.Layers {
		layer := &s.Layers[l]
		shift[l] = heatCapacityFor(layer) * layer.Thickness * s.CellW * s.CellH / 0.01
	}
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, len(s.Layers)*s.Nx*s.Ny)
	for i := range b {
		b[i] = rng.Float64()
	}
	checkResidual(t, s, shift, b)
}
