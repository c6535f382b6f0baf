// Package mat implements the small dense complex linear algebra kernel
// that ArrayTrack's MUSIC pipeline needs: complex matrices, products,
// Hermitian transposes, and a cyclic-Jacobi eigendecomposition of
// Hermitian matrices.
//
// Go's standard library has no numerical linear algebra, and the
// correlation matrices involved are tiny (at most 16×16 for a
// two-WARP, sixteen-antenna AP), so a from-scratch Jacobi solver is
// both sufficient and numerically excellent: Jacobi is backward stable
// and converges quadratically once off-diagonal mass is small.
package mat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, row-major
}

// New returns a zero matrix with the given shape. It panics if either
// dimension is non-positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Equalish reports whether m and o have the same shape and all entries
// within tol of each other (in complex modulus).
func (m *Matrix) Equalish(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + o as a new matrix.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.mustSameShape(o)
	r := New(m.Rows, m.Cols)
	for i := range m.Data {
		r.Data[i] = m.Data[i] + o.Data[i]
	}
	return r
}

// Sub returns m - o as a new matrix.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.mustSameShape(o)
	r := New(m.Rows, m.Cols)
	for i := range m.Data {
		r.Data[i] = m.Data[i] - o.Data[i]
	}
	return r
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s complex128) *Matrix {
	r := New(m.Rows, m.Cols)
	for i := range m.Data {
		r.Data[i] = s * m.Data[i]
	}
	return r
}

// Mul returns the matrix product m·o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	r := New(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			row := o.Data[k*o.Cols:]
			out := r.Data[i*o.Cols:]
			for j := 0; j < o.Cols; j++ {
				out[j] += a * row[j]
			}
		}
	}
	return r
}

// H returns the Hermitian (conjugate) transpose of m.
func (m *Matrix) H() *Matrix {
	r := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			r.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return r
}

// MulVecInto computes m·v into dst (length m.Rows) and returns dst.
// dst must not alias v.
func (m *Matrix) MulVecInto(dst, v []complex128) []complex128 {
	if len(v) != m.Cols {
		panic("mat: MulVecInto length mismatch")
	}
	if len(dst) != m.Rows {
		panic("mat: MulVecInto dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols:]
		for j := 0; j < m.Cols; j++ {
			s += row[j] * v[j]
		}
		dst[i] = s
	}
	return dst
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []complex128 {
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// IsHermitian reports whether m equals its Hermitian transpose within
// tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// OuterAccumulate adds v·vᴴ (scaled by w) into m in place. This is the
// inner loop of sample-correlation-matrix estimation, so it avoids
// allocation.
func (m *Matrix) OuterAccumulate(v []complex128, w float64) {
	if m.Rows != len(v) || m.Cols != len(v) {
		panic("mat: OuterAccumulate shape mismatch")
	}
	for i := range v {
		vi := v[i] * complex(w, 0)
		row := m.Data[i*m.Cols:]
		for j := range v {
			row[j] += vi * cmplx.Conj(v[j])
		}
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%8.4f%+8.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// ErrNotHermitian is returned by EigHermitianWS when the input is not
// Hermitian within the solver's tolerance.
var ErrNotHermitian = errors.New("mat: matrix is not Hermitian")

// Eig holds the result of a Hermitian eigendecomposition: A·V = V·diag(λ)
// with real eigenvalues sorted ascending and orthonormal eigenvectors in
// the columns of V.
type Eig struct {
	// Values are the eigenvalues in ascending order.
	Values []float64
	// Vectors has the corresponding eigenvectors in its columns:
	// Vectors.Col(k) pairs with Values[k].
	Vectors *Matrix
}

// EigHermitianWS computes the full eigendecomposition of a Hermitian
// matrix by complex cyclic Jacobi, drawing every buffer from ws, so
// repeated calls with one workspace are allocation-free in steady
// state. The returned Eig aliases ws and is valid only until the next
// call with the same workspace; a nil ws means a fresh workspace, whose
// result is the caller's to keep.
func EigHermitianWS(a *Matrix, ws *EigWorkspace) (Eig, error) {
	if ws == nil {
		ws = &EigWorkspace{}
	}
	n := a.Rows
	if a.Cols != n {
		return Eig{}, errors.New("mat: EigHermitian needs a square matrix")
	}
	// Scale the Hermitian check to the matrix magnitude.
	scale := a.FrobeniusNorm()
	if scale == 0 {
		return ws.zeroEig(n), nil
	}
	if !a.IsHermitian(1e-9 * scale) {
		return Eig{}, ErrNotHermitian
	}

	ws.ensure(n)
	w := ws.w.CopyInto(a)
	v := IdentityInto(ws.v)
	// Force exact Hermitian symmetry so rounding in the input cannot
	// push the iteration off the Hermitian manifold.
	for i := 0; i < n; i++ {
		w.Set(i, i, complex(real(w.At(i, i)), 0))
		for j := i + 1; j < n; j++ {
			v := (w.At(i, j) + cmplx.Conj(w.At(j, i))) / 2
			w.Set(i, j, v)
			w.Set(j, i, cmplx.Conj(v))
		}
	}

	const maxSweeps = 60
	tol := 1e-14 * scale
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if cmplx.Abs(apq) <= tol/float64(n) {
					continue
				}
				jacobiRotate(w, v, p, q)
			}
		}
	}

	eig := Eig{Values: ws.vals, Vectors: v}
	for i := 0; i < n; i++ {
		eig.Values[i] = real(w.At(i, i))
	}
	sortEigWS(&eig, ws)
	return eig, nil
}

// jacobiRotate applies a unitary plane rotation in the (p,q) plane that
// zeroes w[p][q], updating both w (two-sided) and the accumulated
// eigenvector matrix v (one-sided, columns).
func jacobiRotate(w, v *Matrix, p, q int) {
	n := w.Rows
	app := real(w.At(p, p))
	aqq := real(w.At(q, q))
	apq := w.At(p, q)
	mag := cmplx.Abs(apq)
	if mag == 0 {
		return
	}
	// Phase factor so the rotated off-diagonal element is real:
	// apq = mag·e^{iφ}.
	phase := apq / complex(mag, 0)

	// Classic symmetric Jacobi angle on the "realified" 2×2 block
	// [[app, mag], [mag, aqq]].
	theta := (aqq - app) / (2 * mag)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	// Complex rotation: columns p,q of the unitary
	//   G[p][p]=c, G[p][q]=s·phase, G[q][p]=-s·conj(phase), G[q][q]=c
	// applied as w ← Gᴴ w G.
	cs := complex(c, 0)
	sp := complex(s, 0) * phase

	for k := 0; k < n; k++ {
		wkp := w.At(k, p)
		wkq := w.At(k, q)
		w.Set(k, p, cs*wkp-cmplx.Conj(sp)*wkq)
		w.Set(k, q, sp*wkp+cs*wkq)
	}
	for k := 0; k < n; k++ {
		wpk := w.At(p, k)
		wqk := w.At(q, k)
		w.Set(p, k, cs*wpk-sp*wqk)
		w.Set(q, k, cmplx.Conj(sp)*wpk+cs*wqk)
	}
	// Clean up rounding drift on the pivots.
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	w.Set(p, p, complex(real(w.At(p, p)), 0))
	w.Set(q, q, complex(real(w.At(q, q)), 0))

	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, cs*vkp-cmplx.Conj(sp)*vkq)
		v.Set(k, q, sp*vkp+cs*vkq)
	}
}

func offDiagNorm(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i == j {
				continue
			}
			v := m.At(i, j)
			s += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return math.Sqrt(s)
}

// sortEigWS sorts eigenpairs by ascending eigenvalue, permuting the
// eigenvector columns to match.
func sortEigWS(e *Eig, ws *EigWorkspace) {
	n := len(e.Values)
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort: n ≤ 16.
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && e.Values[idx[j-1]] > e.Values[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	// e.Values aliases ws.vals and e.Vectors aliases ws.v, so the
	// sorted copies must land in the workspace's second pair of buffers.
	vals := ws.sortedVals(n)
	vecs := ReuseMatrix(ws.vecs, e.Vectors.Rows, n)
	ws.vecs = vecs
	for k, src := range idx {
		vals[k] = e.Values[src]
		for r := 0; r < e.Vectors.Rows; r++ {
			vecs.Set(r, k, e.Vectors.At(r, src))
		}
	}
	e.Values = vals
	e.Vectors = vecs
}

// VecDot returns the complex inner product ⟨a,b⟩ = Σ conj(a_i)·b_i.
func VecDot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("mat: VecDot length mismatch")
	}
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// VecNorm returns the Euclidean norm of v.
func VecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}
