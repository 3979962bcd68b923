package thermal

import "math"

// network holds the conductances of a stack's RC network, K·u = b, where
// u is each cell's temperature rise above ambient. Cell (x, y) of layer
// l is unknown l·n + y·Nx + x. Every layer is laterally uniform, so all
// conductances are per layer; the grid edges are adiabatic and only the
// top layer drains into the sink.
type network struct {
	nx, ny, nl, n int
	// gx, gy are the lateral conductances of each layer (W/K).
	gx, gy []float64
	// gz[l] couples layer l to layer l+1; gz[nl-1] is zero.
	gz []float64
	// gSink ties each top-layer cell to ambient.
	gSink float64
}

func newNetwork(s *Stack) network {
	nx, ny, nl := s.Nx, s.Ny, len(s.Layers)
	n := nx * ny
	cellArea := s.CellW * s.CellH
	net := network{nx: nx, ny: ny, nl: nl, n: n,
		gx: make([]float64, nl), gy: make([]float64, nl), gz: make([]float64, nl)}
	for l, layer := range s.Layers {
		net.gx[l] = layer.K * layer.Thickness * s.CellH / s.CellW
		net.gy[l] = layer.K * layer.Thickness * s.CellW / s.CellH
	}
	for l := 0; l < nl-1; l++ {
		r := s.Layers[l].Thickness/(2*s.Layers[l].K) + s.Layers[l+1].Thickness/(2*s.Layers[l+1].K)
		net.gz[l] = cellArea / r
	}
	// Sink: distributed over the top layer's cells, in series with half
	// the top layer's vertical resistance.
	rSinkCell := s.SinkR*float64(n) + s.Layers[0].Thickness/(2*s.Layers[0].K*cellArea)
	net.gSink = 1 / rSinkCell
	return net
}

// solver solves K·u = b directly. The lateral part of K in each layer
// is gx·Lx + gy·Ly, Lx and Ly being the 1-D Laplacians of a row and a
// column with zero-flux ends; the orthonormal DCT-II diagonalises both,
// with eigenvalues λ_k = 2 − 2cos(πk/n). One 2-D DCT of every layer
// therefore splits K into nx·ny independent lateral modes, each a
// tridiagonal system over the nl layers that one Thomas solve answers
// exactly.
type solver struct {
	network
	dx, dy *dct
	// invPiv[l·n+m] is the reciprocal Thomas pivot of layer l in the
	// tridiagonal system of mode m = kx·ny + ky.
	invPiv []float64
	// a, b are one layer each of scratch for the transforms.
	a, b []float64
}

// newSolver factors the network of s. shift, if not nil, adds shift[l]
// to the diagonal of every cell of layer l: the C/dt term of a
// backward-Euler step.
func newSolver(s *Stack, shift []float64) *solver {
	sv := &solver{network: newNetwork(s)}
	nx, ny, nl, n := sv.nx, sv.ny, sv.nl, sv.n
	sv.dx = newDCT(nx)
	sv.dy = sv.dx
	if ny != nx {
		sv.dy = newDCT(ny)
	}
	sv.invPiv = make([]float64, nl*n)
	sv.a, sv.b = make([]float64, n), make([]float64, n)
	// Mode m of layer l has diagonal d = base_l + gx_l·λx + gy_l·λy and
	// couples to its neighbour layers through −gz. Thomas pivots:
	// piv_0 = d_0, piv_l = d_l − gz[l−1]²/piv_{l−1}.
	for l := 0; l < nl; l++ {
		base := sv.gz[l]
		if l > 0 {
			base += sv.gz[l-1]
		} else {
			base += sv.gSink
		}
		if shift != nil {
			base += shift[l]
		}
		cur := sv.invPiv[l*n : (l+1)*n]
		for kx, lx := range sv.dx.lam {
			for ky, ly := range sv.dy.lam {
				cur[kx*ny+ky] = base + sv.gx[l]*lx + sv.gy[l]*ly
			}
		}
		if l > 0 {
			g2, prev := sv.gz[l-1]*sv.gz[l-1], sv.invPiv[(l-1)*n:l*n]
			for m := range cur {
				cur[m] -= g2 * prev[m]
			}
		}
		for m := range cur {
			cur[m] = 1 / cur[m]
		}
	}
	return sv
}

// powerModes returns the modes of s's power maps, every layer end to
// end; a passive layer's modes are zero.
func (sv *solver) powerModes(s *Stack) []float64 {
	p := make([]float64, sv.nl*sv.n)
	for l, layer := range s.Layers {
		if layer.Power != nil {
			sv.forward(p[l*sv.n:(l+1)*sv.n], layer.Power)
		}
	}
	return p
}

// forward sets dst to the 2-D DCT of one layer, src, indexed by mode
// kx·ny + ky: the DCT of each column, a transpose, then the DCT of each
// row.
func (sv *solver) forward(dst, src []float64) {
	sv.dy.forward(sv.a, src, sv.b, sv.nx)
	transpose(sv.b, sv.a, sv.ny, sv.nx)
	sv.dx.forward(dst, sv.b, sv.a, sv.ny)
}

// inverse sets dst to offset plus the inverse 2-D DCT of one layer of
// modes, src.
func (sv *solver) inverse(dst, src []float64, offset float64) {
	sv.dx.inverse(sv.a, src, sv.b, sv.ny)
	transpose(sv.b, sv.a, sv.nx, sv.ny)
	sv.dy.inverse(dst, sv.b, sv.a, sv.nx)
	for i := range dst {
		dst[i] += offset
	}
}

// transpose sets dst (cols×rows) to the transpose of src (rows×cols).
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// dct is the orthonormal DCT-II of n points, applied along the first
// index of an n×w row-major block: a combination of whole lines of w
// values, so every inner loop runs over one contiguous line.
//
// Mode k is even or odd about the middle of the n points:
// q_k[n−1−j] = (−1)^k·q_k[j]. Folding the block's lines in pairs into
// their sums and differences lets even modes read only the first half
// of the sums and odd modes only the first half of the differences,
// which halves the work of both directions.
type dct struct {
	n int
	// q[k·n+j] is mode k at point j.
	q []float64
	// lam[k] is the eigenvalue 2 − 2cos(πk/n) of mode k of the 1-D
	// zero-flux Laplacian.
	lam []float64
}

// newDCT tabulates the basis of n points: q_k[j] = c_k·cos(πk(2j+1)/2n),
// c_0 = √(1/n), c_k = √(2/n). The cosine takes only the 4n values
// cos(πm/2n).
func newDCT(n int) *dct {
	cos := make([]float64, 4*n)
	for m := range cos {
		cos[m] = math.Cos(math.Pi * float64(m) / float64(2*n))
	}
	d := &dct{n: n, q: make([]float64, n*n), lam: make([]float64, n)}
	for k := range d.lam {
		d.lam[k] = 2 - 2*cos[2*k]
	}
	c0, c := math.Sqrt(1/float64(n)), math.Sqrt(2/float64(n))
	for j := 0; j < n; j++ {
		d.q[j] = c0
	}
	for k := 1; k < n; k++ {
		for j := 0; j < n; j++ {
			d.q[k*n+j] = c * cos[k*(2*j+1)%(4*n)]
		}
	}
	return d
}

// halves splits scratch into the h = ⌈n/2⌉ folded sum lines and the
// ⌊n/2⌋ difference lines of width w. Mode k reads the sums if it is
// even, the differences if odd; the middle point of an odd n is a sum
// line only, since every odd mode is zero there.
func (d *dct) halves(scratch []float64, w int) (sums, diffs []float64) {
	h := (d.n + 1) / 2
	return scratch[:h*w], scratch[h*w : d.n*w]
}

// forward sets dst = Q·src, using scratch (n·w values).
func (d *dct) forward(dst, src, scratch []float64, w int) {
	n := d.n
	sums, diffs := d.halves(scratch, w)
	for j := 0; j < n/2; j++ {
		a, b := src[j*w:(j+1)*w], src[(n-1-j)*w:(n-j)*w]
		s, t := sums[j*w:(j+1)*w], diffs[j*w:(j+1)*w]
		for i, v := range a {
			s[i], t[i] = v+b[i], v-b[i]
		}
	}
	if n%2 == 1 {
		copy(sums[n/2*w:], src[n/2*w:(n/2+1)*w])
	}
	for k := 0; k < n; k++ {
		out := dst[k*w : (k+1)*w]
		clear(out)
		half := sums
		if k%2 == 1 {
			half = diffs
		}
		for j := 0; j*w < len(half); j++ {
			c, line := d.q[k*n+j], half[j*w:(j+1)*w]
			for i, v := range line {
				out[i] += c * v
			}
		}
	}
}

// inverse sets dst = Qᵀ·src, using scratch (n·w values).
func (d *dct) inverse(dst, src, scratch []float64, w int) {
	n := d.n
	sums, diffs := d.halves(scratch, w)
	clear(scratch[:n*w])
	for k := 0; k < n; k++ {
		line := src[k*w : (k+1)*w]
		half := sums
		if k%2 == 1 {
			half = diffs
		}
		for j := 0; j*w < len(half); j++ {
			c, acc := d.q[k*n+j], half[j*w:(j+1)*w]
			for i, v := range line {
				acc[i] += c * v
			}
		}
	}
	for j := 0; j < n/2; j++ {
		s, t := sums[j*w:(j+1)*w], diffs[j*w:(j+1)*w]
		a, b := dst[j*w:(j+1)*w], dst[(n-1-j)*w:(n-j)*w]
		for i, v := range s {
			a[i], b[i] = v+t[i], v-t[i]
		}
	}
	if n%2 == 1 {
		copy(dst[n/2*w:(n/2+1)*w], sums[n/2*w:])
	}
}

// solveModes overwrites b, all layers of modes, with the solution of
// every mode's tridiagonal system: forward and back substitution with
// the pivots from newSolver, all modes of a layer at a time.
func (sv *solver) solveModes(b []float64) {
	n := sv.n
	for i := 0; i < n; i++ {
		b[i] *= sv.invPiv[i]
	}
	for l := 1; l < sv.nl; l++ {
		g := sv.gz[l-1]
		prev := b[(l-1)*n : l*n]
		cur := b[l*n : (l+1)*n]
		ip := sv.invPiv[l*n : (l+1)*n]
		for i := range cur {
			cur[i] = (cur[i] + g*prev[i]) * ip[i]
		}
	}
	for l := sv.nl - 2; l >= 0; l-- {
		g := sv.gz[l]
		cur := b[l*n : (l+1)*n]
		next := b[(l+1)*n : (l+2)*n]
		ip := sv.invPiv[l*n : (l+1)*n]
		for i := range cur {
			cur[i] += g * ip[i] * next[i]
		}
	}
}

// temperatures returns offset plus the inverse transform of every layer
// of modes u, sliced by layer, every layer sharing one allocation.
func (sv *solver) temperatures(u []float64, offset float64) [][]float64 {
	n := sv.n
	all := make([]float64, sv.nl*n)
	T := make([][]float64, sv.nl)
	for l := range T {
		T[l] = all[l*n : (l+1)*n : (l+1)*n]
		sv.inverse(T[l], u[l*n:(l+1)*n], offset)
	}
	return T
}
