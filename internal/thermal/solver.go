package thermal

import (
	"fmt"
	"math"
)

// Solver constants shared by the steady-state and transient solves.
const (
	// cgTolK stops conjugate gradients once no cell's temperature moved
	// by more than this many kelvin in the last iteration.
	cgTolK = 1e-7
	// cgMaxIters bounds one solve; the planar and stacked floorplans
	// converge in under 40 iterations at grid 32 and under 70 at 64.
	cgMaxIters = 20000
)

// system is the linear RC network of a stack, K·u = b, where u is each
// cell's temperature rise above ambient. Cell (x, y) of layer l is
// unknown l·n + y·Nx + x. Every layer is laterally uniform, so the
// lateral and vertical conductances are per layer; only the diagonal
// varies by cell (grid edges have fewer neighbours, the top layer
// drains into the sink).
type system struct {
	nx, ny, nl, n int
	// gx, gy are the lateral conductances of each layer (W/K).
	gx, gy []float64
	// gz[l] couples layer l to layer l+1; gz[nl-1] is zero.
	gz []float64
	// gSink ties each top-layer cell to ambient.
	gSink float64
	// diag is each cell's total conductance, plus any capacitive
	// shift of a transient step.
	diag []float64
	// invPiv holds the reciprocal Thomas pivots of every vertical
	// column's tridiagonal block, the preconditioner's first level.
	invPiv []float64
	// cor is the preconditioner's second, coarse level.
	cor *coarse
	// r holds the right-hand side until solve turns it into the
	// residual.
	r []float64
	// p and zq are the other conjugate-gradient vectors. zq holds
	// q = K·p until r is updated, then z = M⁻¹·r, which is first needed
	// after q is dead.
	p, zq []float64
}

// newSystem assembles the network of s. shift, if not nil, adds
// shift[l] to the diagonal of every cell of layer l: the C/dt term of a
// backward-Euler step.
func newSystem(s *Stack, shift []float64) *system {
	nx, ny, nl := s.Nx, s.Ny, len(s.Layers)
	n := nx * ny
	cellArea := s.CellW * s.CellH
	sys := &system{nx: nx, ny: ny, nl: nl, n: n,
		gx: make([]float64, nl), gy: make([]float64, nl), gz: make([]float64, nl)}
	for l, layer := range s.Layers {
		sys.gx[l] = layer.K * layer.Thickness * s.CellH / s.CellW
		sys.gy[l] = layer.K * layer.Thickness * s.CellW / s.CellH
	}
	for l := 0; l < nl-1; l++ {
		r := s.Layers[l].Thickness/(2*s.Layers[l].K) + s.Layers[l+1].Thickness/(2*s.Layers[l+1].K)
		sys.gz[l] = cellArea / r
	}
	// Sink: distributed over the top layer's cells, in series with half
	// the top layer's vertical resistance.
	rSinkCell := s.SinkR*float64(n) + s.Layers[0].Thickness/(2*s.Layers[0].K*cellArea)
	sys.gSink = 1 / rSinkCell

	work := make([]float64, 5*nl*n)
	next := func() []float64 {
		v := work[: nl*n : nl*n]
		work = work[nl*n:]
		return v
	}
	sys.diag, sys.invPiv = next(), next()
	sys.r, sys.p, sys.zq = next(), next(), next()

	for l := 0; l < nl; l++ {
		gx, gy := sys.gx[l], sys.gy[l]
		base := sys.gz[l]
		if l > 0 {
			base += sys.gz[l-1]
		}
		if l == 0 {
			base += sys.gSink
		}
		if shift != nil {
			base += shift[l]
		}
		d := sys.diag[l*n : (l+1)*n]
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				g := base
				if x > 0 {
					g += gx
				}
				if x < nx-1 {
					g += gx
				}
				if y > 0 {
					g += gy
				}
				if y < ny-1 {
					g += gy
				}
				d[y*nx+x] = g
			}
		}
	}
	// Thomas factorisation of every column at once, layer by layer:
	// piv_0 = d_0, piv_l = d_l − gz[l−1]²/piv_{l−1}.
	for i := 0; i < n; i++ {
		sys.invPiv[i] = 1 / sys.diag[i]
	}
	for l := 1; l < nl; l++ {
		g2 := sys.gz[l-1] * sys.gz[l-1]
		prev := sys.invPiv[(l-1)*n : l*n]
		cur := sys.invPiv[l*n : (l+1)*n]
		d := sys.diag[l*n : (l+1)*n]
		for i := range cur {
			cur[i] = 1 / (d[i] - g2*prev[i])
		}
	}
	sys.cor = newCoarse(sys, shift)
	return sys
}

// apply sets out = K·v and returns v·out.
func (sys *system) apply(v, out []float64) float64 {
	nx, ny, n := sys.nx, sys.ny, sys.n
	var dot float64
	for l := 0; l < sys.nl; l++ {
		vl := v[l*n : (l+1)*n]
		ol := out[l*n : (l+1)*n]
		d := sys.diag[l*n : (l+1)*n]
		// A missing neighbour layer reads this layer with a zero
		// conductance, which keeps the inner loop free of branches.
		up, gUp := vl, 0.0
		if l > 0 {
			up, gUp = v[(l-1)*n:l*n], sys.gz[l-1]
		}
		down, gDown := vl, sys.gz[l]
		if l < sys.nl-1 {
			down = v[(l+1)*n : (l+2)*n]
		}
		gx, gy := sys.gx[l], sys.gy[l]
		for y := 0; y < ny; y++ {
			lo, hi := y*nx, (y+1)*nx
			c, o, dd := vl[lo:hi], ol[lo:hi], d[lo:hi]
			u, dn := up[lo:hi], down[lo:hi]
			for x := range o {
				o[x] = dd[x]*c[x] - gUp*u[x] - gDown*dn[x]
			}
			for x := 1; x < len(o); x++ {
				o[x] -= gx * c[x-1]
				o[x-1] -= gx * c[x]
			}
			if y > 0 {
				north := vl[lo-nx : lo]
				for x := range o {
					o[x] -= gy * north[x]
				}
			}
			if y < ny-1 {
				south := vl[hi : hi+nx]
				for x := range o {
					o[x] -= gy * south[x]
				}
			}
			for x, w := range o {
				dot += w * c[x]
			}
		}
	}
	return dot
}

// precondition sets z = M⁻¹·r and returns r·z. M⁻¹ is additive over
// two levels. The first keeps only the vertical couplings of K: each
// column of cells is a tridiagonal system, solved exactly by forward and
// back substitution with the pivots from newSystem. The second is the
// coarse correction (see coarse).
func (sys *system) precondition(r, z []float64) float64 {
	n := sys.n
	for i := 0; i < n; i++ {
		z[i] = r[i] * sys.invPiv[i]
	}
	for l := 1; l < sys.nl; l++ {
		g := sys.gz[l-1]
		prev := z[(l-1)*n : l*n]
		cur := z[l*n : (l+1)*n]
		rl := r[l*n : (l+1)*n]
		ip := sys.invPiv[l*n : (l+1)*n]
		for i := range cur {
			cur[i] = (rl[i] + g*prev[i]) * ip[i]
		}
	}
	for l := sys.nl - 2; l >= 0; l-- {
		g := sys.gz[l]
		cur := z[l*n : (l+1)*n]
		next := z[(l+1)*n : (l+2)*n]
		ip := sys.invPiv[l*n : (l+1)*n]
		for i := range cur {
			cur[i] += g * ip[i] * next[i]
		}
	}
	sys.cor.correct(sys, r, z)
	var dot float64
	for i, v := range r {
		dot += v * z[i]
	}
	return dot
}

// solve runs preconditioned conjugate gradients on K·u = b, where the
// caller has stored b in sys.r, from the initial guess in u, which it
// overwrites with the solution. It stops once the largest per-cell
// update of an iteration is below cgTolK and returns the number of
// iterations taken.
func (sys *system) solve(u []float64) (int, error) {
	r, p, z, q := sys.r, sys.p, sys.zq, sys.zq
	sys.apply(u, q)
	var rMax float64
	for i := range r {
		r[i] -= q[i]
		if a := math.Abs(r[i]); a > rMax {
			rMax = a
		}
	}
	if rMax == 0 {
		return 0, nil
	}
	rz := sys.precondition(r, z)
	copy(p, z)
	for iter := 1; iter <= cgMaxIters; iter++ {
		alpha := rz / sys.apply(p, q)
		var step float64
		for i := range u {
			u[i] += alpha * p[i]
			r[i] -= alpha * q[i]
			if a := math.Abs(p[i]); a > step {
				step = a
			}
		}
		if math.Abs(alpha)*step < cgTolK {
			return iter, nil
		}
		rzNext := sys.precondition(r, z)
		if rzNext == 0 { // u is exact
			return iter, nil
		}
		beta := rzNext / rz
		rz = rzNext
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return cgMaxIters, fmt.Errorf("thermal: conjugate gradients did not converge in %d iterations", cgMaxIters)
}

// temperatures converts a rise vector in place to absolute temperatures
// and returns it sliced by layer, every layer sharing its storage.
func (sys *system) temperatures(rise []float64, ambient float64) [][]float64 {
	T := make([][]float64, sys.nl)
	for l := range T {
		T[l] = rise[l*sys.n : (l+1)*sys.n : (l+1)*sys.n]
		for i := range T[l] {
			T[l][i] += ambient
		}
	}
	return T
}
