package mat

// Real symmetric eigensolver: Householder reduction to tridiagonal form
// followed by the implicit-shift QL iteration (the EISPACK tred2 / tql2
// pair). It exists for the matrices MUSIC actually decomposes: a
// forward–backward averaged, spatially smoothed correlation matrix is
// centro-Hermitian, hence unitarily similar to a real symmetric matrix
// of the same order (internal/music forms it), and on those a real
// tridiagonal QL costs about a seventh of the complex Jacobi sweeps of
// EigHermitianWS. That solver stays the one for every Hermitian matrix
// not in this form.
//
// The working matrix is held transposed — row j of z is column j of the
// textbook V — so every inner loop of the reduction, the accumulation
// and the QL rotations walks one or two contiguous rows, and the
// eigenvectors come out as rows, which is how the subspace consumer
// reads them.

import (
	"errors"
	"math"
)

// ErrNoConvergence reports a QL iteration that did not deflate an
// eigenvalue within its iteration cap (non-finite input is the one known
// cause). Callers with a general solver to fall back on should use it.
var ErrNoConvergence = errors.New("mat: symmetric QL iteration did not converge")

// symmetricMaxIter caps the QL sweeps spent on one eigenvalue. Two or
// three are typical; the cap only bounds the work on non-finite input.
const symmetricMaxIter = 60

// EigSymmetricWS computes the full eigendecomposition of the real
// symmetric n×n matrix held row-major in a, in place: on return row j of
// a is the unit eigenvector belonging to vals[j], and vals is ascending.
// Only a's upper triangle is read. vals aliases ws and is valid until
// the next call with the same workspace; with one workspace, repeated
// calls are allocation-free in steady state. On error a's contents are
// unspecified.
func EigSymmetricWS(a []float64, n int, ws *EigWorkspace) (vals []float64, err error) {
	if n < 1 || len(a) != n*n {
		return nil, errors.New("mat: EigSymmetric needs an n×n matrix")
	}
	d := ws.sortedVals(n)
	ws.sub = growFloats(ws.sub, n)
	e := ws.sub
	tridiagonalize(a, n, d, e)
	if !tridiagonalQL(a, n, d, e) {
		return nil, ErrNoConvergence
	}
	// Ascending order, moving each eigenvector row with its value.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			ri, rk := a[i*n:i*n+n], a[k*n:k*n+n]
			for c := range ri {
				ri[c], rk[c] = rk[c], ri[c]
			}
		}
	}
	return d, nil
}

// tridiagonalize reduces the symmetric matrix in z (transposed storage,
// see the file comment) to tridiagonal form by Householder reflections:
// d receives the diagonal, e[1..n) the sub-diagonal (e[0] = 0), and z
// the accumulated orthogonal transformation.
func tridiagonalize(z []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// d[0..i) holds row i of the remaining matrix.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		zi := z[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			zi[j] = f
			zj := z[j*n : j*n+i]
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z[j*n : j*n+n]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			zj[i] = 0
		}
		d[i] = h
	}
	// Accumulate the reflections.
	for i := 0; i < n-1; i++ {
		zi := z[i*n : i*n+n]
		zi[n-1] = zi[i]
		zi[i] = 1
		next := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k := range next {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				var g float64
				for k, v := range next {
					g += v * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		for k := range next {
			next[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tridiagonalQL diagonalizes the symmetric tridiagonal matrix (d, e) by
// QL iterations with implicit shifts, applying every rotation to the
// rows of z. It reports false if an eigenvalue exhausts
// symmetricMaxIter.
func tridiagonalQL(z []float64, n int, d, e []float64) bool {
	copy(e, e[1:n])
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a negligible sub-diagonal element; e[n-1] = 0 ends the scan.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == symmetricMaxIter {
				return false
			}
			// Implicit shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// The QL sweep proper.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				lo := z[i*n : i*n+n]
				hi := z[(i+1)*n : (i+1)*n+n]
				for k, v := range hi {
					hi[k] = s*lo[k] + c*v
					lo[k] = c*lo[k] - s*v
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return true
}
