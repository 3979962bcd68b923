package thermal

import "math"

// coarseBlocks caps the coarse grid at this many blocks per lateral
// dimension.
const coarseBlocks = 8

// coarse is the second level of the preconditioner: the network
// collapsed onto a few aggregates, solved exactly. The column
// preconditioner resolves every vertical coupling but only damps the
// lateral ones locally, so temperature modes that are smooth across the
// die would take CG many iterations; the coarse solve removes them.
//
// The grid is cut into at most coarseBlocks×coarseBlocks blocks of
// columns, and each block holds two aggregates (one in a single-layer
// stack): its cells of the top layer, and its cells of every layer
// below. The top layer is the heat spreader, laterally far more
// conductive than everything under it, so its smooth modes do not
// follow the die's.
type coarse struct {
	// block maps a lateral cell to its block; aggregate (b, g) of layer
	// group g is unknown b·groups + g.
	block  []int
	groups int
	nc     int
	// band is the Cholesky factor of the aggregated matrix Pᵀ·K·P,
	// lower band of half-width bw: L[i][k] is band[i·(bw+1)+k−i+bw].
	bw   int
	band []float64
	// rc holds the restricted residual, then the coarse solution.
	rc []float64
}

// newCoarse aggregates sys, whose diagonal may carry a per-layer
// transient shift, in O(cells) and factors the result.
func newCoarse(sys *system, shift []float64) *coarse {
	nx, ny, n, nl := sys.nx, sys.ny, sys.n, sys.nl
	bx, by := min(nx, coarseBlocks), min(ny, coarseBlocks)
	c := &coarse{block: make([]int, n), groups: min(nl, 2)}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			c.block[y*nx+x] = (y*by/ny)*bx + x*bx/nx
		}
	}
	c.nc = bx * by * c.groups
	c.bw = bx * c.groups // a block's neighbour one block row down
	c.band = make([]float64, c.nc*(c.bw+1))
	c.rc = make([]float64, c.nc)
	at := func(i, k int) *float64 { return &c.band[i*(c.bw+1)+k-i+c.bw] }
	// Each conductance between two aggregates adds to both diagonals and
	// subtracts from their coupling; conductances inside one aggregate
	// cancel out.
	link := func(i, j int, g float64) {
		if i == j {
			return
		}
		*at(i, i) += g
		*at(j, j) += g
		*at(max(i, j), min(i, j)) -= g
	}
	for l := 0; l < nl; l++ {
		self := 0.0
		if l == 0 {
			self = sys.gSink
		}
		if shift != nil {
			self += shift[l]
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := y*nx + x
				a := c.agg(l, i)
				*at(a, a) += self
				if x+1 < nx {
					link(a, c.agg(l, i+1), sys.gx[l])
				}
				if y+1 < ny {
					link(a, c.agg(l, i+nx), sys.gy[l])
				}
				if l+1 < nl {
					link(a, c.agg(l+1, i), sys.gz[l])
				}
			}
		}
	}
	// Band Cholesky: the factor has no fill outside the band.
	for i := 0; i < c.nc; i++ {
		for k := max(0, i-c.bw); k <= i; k++ {
			s := *at(i, k)
			for j := max(0, i-c.bw); j < k; j++ {
				s -= *at(i, j) * *at(k, j)
			}
			if k == i {
				*at(i, i) = math.Sqrt(s)
			} else {
				*at(i, k) = s / *at(k, k)
			}
		}
	}
	return c
}

// agg returns the aggregate of lateral cell i of layer l.
func (c *coarse) agg(l, i int) int {
	return c.block[i]*c.groups + min(l, c.groups-1)
}

// correct adds P·(PᵀKP)⁻¹·Pᵀ·r to z.
func (c *coarse) correct(sys *system, r, z []float64) {
	n := sys.n
	rc := c.rc
	clear(rc)
	for l := 0; l < sys.nl; l++ {
		g := min(l, c.groups-1)
		for i, v := range r[l*n : (l+1)*n] {
			rc[c.block[i]*c.groups+g] += v
		}
	}
	w := c.bw + 1
	for i := range rc { // L·y = rc
		row := c.band[i*w : (i+1)*w]
		s := rc[i]
		for k := max(0, i-c.bw); k < i; k++ {
			s -= row[k-i+c.bw] * rc[k]
		}
		rc[i] = s / row[c.bw]
	}
	for i := len(rc) - 1; i >= 0; i-- { // Lᵀ·e = y
		s := rc[i]
		for k := i + 1; k <= min(len(rc)-1, i+c.bw); k++ {
			s -= c.band[k*w+i-k+c.bw] * rc[k]
		}
		rc[i] = s / c.band[i*w+c.bw]
	}
	for l := 0; l < sys.nl; l++ {
		g := min(l, c.groups-1)
		zl := z[l*n : (l+1)*n]
		for i := range zl {
			zl[i] += rc[c.block[i]*c.groups+g]
		}
	}
}
