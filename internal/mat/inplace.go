package mat

// In-place / into variants of the allocating Matrix operations, plus
// the eigendecomposition workspace. These exist for one reason: the
// MUSIC pipeline runs the same tiny (≤16×16) linear algebra for every
// frame of every client, and at production rates the per-frame garbage
// — not the arithmetic — dominates. Every function here performs
// arithmetic identical (bit for bit) to its allocating counterpart; the
// only difference is where the result lands.

import "fmt"

// Zero sets every element of m to zero and returns the receiver.
func (m *Matrix) Zero() *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// CopyInto copies src into dst, which must have the same shape.
func (dst *Matrix) CopyInto(src *Matrix) *Matrix {
	dst.mustSameShape(src)
	copy(dst.Data, src.Data)
	return dst
}

// ReuseMatrix returns m resized to rows×cols, reusing its backing
// storage when capacity allows and allocating otherwise. A nil m
// allocates fresh. Contents are unspecified after the call; use Zero
// when the caller needs a clean slate.
func ReuseMatrix(m *Matrix, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %d×%d", rows, cols))
	}
	if m == nil {
		return New(rows, cols)
	}
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]complex128, need)
	} else {
		m.Data = m.Data[:need]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// IdentityInto overwrites the square matrix m with the identity and
// returns it.
func IdentityInto(m *Matrix) *Matrix {
	if m.Rows != m.Cols {
		panic("mat: IdentityInto needs a square matrix")
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
	return m
}

// EigWorkspace holds every buffer the two eigensolvers need — the
// complex Jacobi of EigHermitianWS and the real QL of EigSymmetricWS —
// so repeated decompositions of same-order matrices run with zero
// steady-state allocations. The zero value is ready to use; buffers
// grow on demand and are reused across calls, including across
// different matrix orders (the backing arrays keep their largest-seen
// capacity).
//
// The Eig returned by EigHermitianWS aliases the workspace's buffers:
// it is valid only until the next call with the same workspace. Callers
// that need the result to survive must copy it out.
type EigWorkspace struct {
	// w and v are the Jacobi iterate and its accumulated rotations;
	// vals holds the unsorted diagonal, and svals, vecs and idx the
	// ascending output and its permutation.
	w, v, vecs *Matrix
	vals       []float64
	svals      []float64
	idx        []int

	// sub is the sub-diagonal scratch of the real symmetric solver
	// (eig_symmetric.go), which returns its eigenvalues in svals.
	sub []float64
}

// sortedVals returns the length-n buffer that receives the sorted
// eigenvalues (distinct from vals, which holds the unsorted diagonal).
func (ws *EigWorkspace) sortedVals(n int) []float64 {
	if cap(ws.svals) < n {
		ws.svals = make([]float64, n)
	}
	ws.svals = ws.svals[:n]
	return ws.svals
}

// ensure sizes the Jacobi buffers for an n×n decomposition.
func (ws *EigWorkspace) ensure(n int) {
	ws.w = ReuseMatrix(ws.w, n, n)
	ws.v = ReuseMatrix(ws.v, n, n)
	ws.vecs = ReuseMatrix(ws.vecs, n, n)
	if cap(ws.vals) < n {
		ws.vals = make([]float64, n)
	} else {
		ws.vals = ws.vals[:n]
	}
	if cap(ws.idx) < n {
		ws.idx = make([]int, n)
	} else {
		ws.idx = ws.idx[:n]
	}
}

// zeroEig is the decomposition of the n×n zero matrix: all eigenvalues
// zero, identity eigenvectors.
func (ws *EigWorkspace) zeroEig(n int) Eig {
	ws.ensure(n)
	for i := range ws.vals {
		ws.vals[i] = 0
	}
	return Eig{Values: ws.vals, Vectors: IdentityInto(ws.vecs)}
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
