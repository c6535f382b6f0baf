package music

// The per-frame eigen split in real arithmetic. With forward–backward
// averaging on (the default), the matrix that reaches the eigensolver is
// SpatialSmoothWS(ForwardBackwardWS(R)): Hermitian and persymmetric,
// R[i,j] = conj(R[n−1−i,n−1−j]) — centro-Hermitian. Such a matrix is
// unitarily similar to a real symmetric one through a fixed sparse Q
// (unitary / real-valued MUSIC: Huarng & Yeh 1991; Linebarger, DeGroat &
// Dowling 1994). For n = 2h (+1 when odd), J the exchange matrix:
//
//	Q = 1/√2 · ⎡ I   0   iI ⎤        T = Qᴴ·R·Q  real symmetric,
//	          ⎢ 0   √2   0 ⎥        R = Q·T·Qᴴ,
//	          ⎣ J   0  −iJ ⎦        eigenvectors e = Q·u.
//
// Applying Q is additions only, so T is formed straight from R's planes
// and a real tridiagonal QL (mat.EigSymmetricWS) replaces the complex
// Jacobi sweeps at about a fifth of their cost — the largest single line
// of a fix before this form.
//
// House pattern, fast form + guard + retained reference: the real form
// is taken only for a matrix that is Hermitian and persymmetric to
// realFormTol of its Frobenius norm, a property of the input, not a
// setting. Everything else — forward–backward off, the baseline
// estimator's raw correlation, a hand-built matrix, zero or non-finite
// input — goes to mat.EigHermitianWS exactly as before (its gates, its
// errors, its symmetrization), and Workspace.EigFallbacks counts it.
// Eigenvectors are not unique, so the two paths are compared by
// eigenvalues and by the noise projector E_N·E_Nᴴ, which the spectrum is
// a function of (TestRealSubspaceMatchesHermitian, and at fix level
// TestRealSubspaceExactOn205Scenes in internal/testbed).

import (
	"math"

	"repro/internal/mat"
)

// realFormTol is the residual, as a fraction of ‖R‖, within which a
// matrix must equal both its conjugate transpose and its conjugated
// 180° rotation for the real form to stand in for it. The real form
// reads only the top half of R's rows and trusts the two symmetries for
// the rest, so it asks far more than EigHermitianWS's 1e-9 Hermitian
// gate: forward–backward averaged matrices meet it to rounding, and a
// matrix merely Hermitian to 1e-9 keeps the solver that symmetrizes it.
const realFormTol = 1e-12

// signalCount is the D rule of §2.3.1 over ascending eigenvalues: the
// number exceeding thresholdFrac times the largest, capped at maxD when
// positive, and clamped to [1, len(vals)−1] so at least one eigenvector
// stays on each side.
func signalCount(vals []float64, thresholdFrac float64, maxD int) int {
	m := len(vals)
	top := vals[m-1]
	d := 0
	for _, v := range vals {
		if v > thresholdFrac*top {
			d++
		}
	}
	if maxD > 0 && d > maxD {
		d = maxD
	}
	if d >= m {
		d = m - 1
	}
	if d < 1 {
		d = 1
	}
	return d
}

// noiseVectors returns the noise-subspace eigenvectors of a correlation
// matrix (SubspacesWS's first result, by the same D rule) in ws.noise,
// valid until the workspace's next use. It is the serving path's
// eigen split: it builds nothing but the noise block, and it solves
// centro-Hermitian input in real arithmetic (see the file comment).
func noiseVectors(ws *Workspace, r *mat.Matrix, thresholdFrac float64, maxD int) (*mat.Matrix, error) {
	m := r.Rows
	if vals, ok := realEig(ws, r); ok {
		nN := m - signalCount(vals, thresholdFrac, maxD)
		ws.noise = mat.ReuseMatrix(ws.noise, m, nN)
		fromRealVectors(ws.noise, ws.sym)
		return ws.noise, nil
	}
	ws.eigFallbacks++
	e, err := mat.EigHermitianWS(r, &ws.eig)
	if err != nil {
		return nil, err
	}
	nN := m - signalCount(e.Values, thresholdFrac, maxD)
	ws.noise = mat.ReuseMatrix(ws.noise, m, nN)
	for i := 0; i < m; i++ {
		copy(ws.noise.Data[i*nN:(i+1)*nN], e.Vectors.Data[i*m:i*m+nN])
	}
	return ws.noise, nil
}

// realEig decomposes r through its real form when r qualifies: square,
// of finite non-zero norm, Hermitian and persymmetric to realFormTol. It
// returns the ascending eigenvalues and leaves the real eigenvectors as
// the rows of ws.sym; ok is false for any other input and if the real
// solver gives up, and the caller then owes r to the general solver.
func realEig(ws *Workspace, r *mat.Matrix) (vals []float64, ok bool) {
	n := r.Rows
	if r.Cols != n || n < 2 {
		return nil, false
	}
	// One pass: squared norm, and the largest squared deviation from
	// either symmetry. Comparing squares spares a square root per
	// element. > skips a NaN deviation, but only a NaN or ±Inf element
	// makes one, and that leaves norm2 NaN or +Inf for the final test.
	var norm2, dev2 float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := r.Data[i*n+j]
			h := r.Data[j*n+i]
			p := r.Data[(n-1-i)*n+n-1-j]
			norm2 += real(v)*real(v) + imag(v)*imag(v)
			hr, hi := real(v)-real(h), imag(v)+imag(h)
			pr, pi := real(v)-real(p), imag(v)+imag(p)
			if d := hr*hr + hi*hi; d > dev2 {
				dev2 = d
			}
			if d := pr*pr + pi*pi; d > dev2 {
				dev2 = d
			}
		}
	}
	if !(norm2 > 0 && norm2 <= math.MaxFloat64 && dev2 <= realFormTol*realFormTol*norm2) {
		return nil, false
	}

	// T = Qᴴ·R·Q from the top half of R's rows; only the upper triangle,
	// which is all the solver reads. With a = R[i,j], b = R[i,n−1−j]:
	// T[i,j] = Re(a+b), T[off+i,off+j] = Re(a−b), T[i,off+j] = −Im(a−b),
	// and through the odd middle column T[i,h] = √2·Re R[i,h],
	// T[h,off+i] = √2·Im R[i,h], T[h,h] = Re R[h,h].
	ws.sym = growPlane(ws.sym, n*n)
	t := ws.sym
	h := n / 2
	off := n - h // the second block starts past the odd middle, if any
	for i := 0; i < h; i++ {
		row := r.Data[i*n : i*n+n]
		for j := 0; j < h; j++ {
			a, b := row[j], row[n-1-j]
			t[i*n+j] = real(a) + real(b)
			t[(off+i)*n+off+j] = real(a) - real(b)
			t[i*n+off+j] = imag(b) - imag(a)
		}
		if off > h {
			t[i*n+h] = math.Sqrt2 * real(row[h])
			t[h*n+off+i] = math.Sqrt2 * imag(row[h])
		}
	}
	if off > h {
		t[h*n+h] = real(r.Data[h*n+h])
	}
	vals, err := mat.EigSymmetricWS(t, n, &ws.eig)
	return vals, err == nil
}

// fromRealVectors writes e = Q·u for the first dst.Cols rows u of the
// real eigenvector matrix (ascending order, so the noise vectors) into
// dst's columns: e[i] = (u[i] + i·u[off+i])/√2, e[n−1−i] = conj(e[i]),
// and the odd middle element e[h] = u[h].
func fromRealVectors(dst *mat.Matrix, u []float64) {
	n, cols := dst.Rows, dst.Cols
	h := n / 2
	off := n - h
	for k := 0; k < cols; k++ {
		uk := u[k*n : k*n+n]
		for i := 0; i < h; i++ {
			re, im := uk[i]*(1/math.Sqrt2), uk[off+i]*(1/math.Sqrt2)
			dst.Data[i*cols+k] = complex(re, im)
			dst.Data[(n-1-i)*cols+k] = complex(re, -im)
		}
		if off > h {
			dst.Data[h*cols+k] = complex(uk[h], 0)
		}
	}
}
