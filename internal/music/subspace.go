package music

// The per-frame eigen split in real arithmetic (unitary / real-valued
// MUSIC: Huarng & Yeh 1991; Linebarger, DeGroat & Dowling 1994). With
// forward–backward averaging on (the default), §2.3 decomposes SS(FB(R))
// (R the row's correlation, ForwardBackwardWS, SpatialSmoothWS over ng
// subarrays), a centro-Hermitian matrix. For n = 2h (+1 when odd), J the
// exchange matrix, a fixed sparse Q makes it real symmetric:
//
//	Q = 1/√2 · ⎡ I   0   iI ⎤        T = Qᴴ·SS(FB(R))·Q,
//	          ⎢ 0   √2   0 ⎥        eigenvectors e = Q·u.
//	          ⎣ J   0  −iJ ⎦
//
// J·Q̄ = Q makes the backward half of the average the conjugate of the
// forward half, so T = Re(Qᴴ·SS(R)·Q) = 1/(ng·N)·Σ_t Σ_g (y_r·y_rᵀ +
// y_i·y_iᵀ), y = Qᴴ·x_{g,t} for subarray g at time t: realForm builds T
// from the snapshots, with no complex correlation, averaging or
// smoothing, and mat.EigSymmetricWS (Householder + QL) solves it at
// about a fifth of complex Jacobi's cost. Without averaging the split
// stays on mat.EigHermitianWS. Eigenvectors are not unique, so the
// splits are compared by eigenvalues and noise projector E_N·E_Nᴴ
// (TestRealSubspaceMatchesHermitian; at fix level
// TestRealSubspaceExactOn205Scenes in internal/testbed).

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

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

// noiseSubspace is the chain from a frame's snapshots to the scan's
// noise subspace over the first n elements of each: the real form with
// forward–backward averaging, correlation → smoothing → Hermitian split
// without it. The returned matrix lives in ws.
func noiseSubspace(ws *Workspace, snaps [][]complex128, n int, opt Options) (*mat.Matrix, error) {
	ng := max(opt.SmoothingGroups, 1)
	if ng >= n {
		return nil, fmt.Errorf("music: invalid smoothing groups %d for %d antennas", ng, n)
	}
	sub := n - ng + 1
	maxD := opt.MaxSignals
	if maxD <= 0 {
		maxD = sub / 2
	}
	if !opt.ForwardBackward {
		r, err := correlate(&ws.r, snaps, n)
		if err != nil {
			return nil, err
		}
		rs, err := SpatialSmoothWS(ws, r, ng)
		if err != nil {
			return nil, err
		}
		return hermitianNoise(ws, rs, opt.thresh(), maxD)
	}
	if err := realForm(ws, snaps, n, ng); err != nil {
		return nil, err
	}
	vals, err := mat.EigSymmetricWS(ws.sym, sub, &ws.eig)
	if err != nil {
		return nil, err
	}
	nN := sub - signalCount(vals, opt.thresh(), maxD)
	ws.noise = mat.ReuseMatrix(ws.noise, sub, nN)
	fromRealVectors(ws.noise, ws.sym)
	return ws.noise, nil
}

// hermitianNoise returns the noise-subspace eigenvectors of a Hermitian
// matrix (SubspacesWS's first result, by the same D rule) in ws.noise,
// valid until the workspace's next use.
func hermitianNoise(ws *Workspace, r *mat.Matrix, thresholdFrac float64, maxD int) (*mat.Matrix, error) {
	e, err := mat.EigHermitianWS(r, &ws.eig)
	if err != nil {
		return nil, err
	}
	m := r.Rows
	nN := m - signalCount(e.Values, thresholdFrac, maxD)
	ws.noise = mat.ReuseMatrix(ws.noise, m, nN)
	for i := 0; i < m; i++ {
		copy(ws.noise.Data[i*nN:(i+1)*nN], e.Vectors.Data[i*m:i*m+nN])
	}
	return ws.noise, nil
}

// realForm writes the upper triangle of T into ws.sym, row-major, sub ×
// sub with sub = n−ng+1, from the first n elements of the snapshots.
// Each term of the sum is one column pair (y_r, y_i) of the planes in
// ws.ry, cs = sub rounded up to 4 apart. Subarrays g and h = ng−1−g
// enter as y_g + y_h and y_g − y_h, whose outer products sum to twice
// theirs, and the middle one of odd ng once at double weight. x → J·x̄
// maps y_g to ȳ_h, so it conjugates the sum and negates the conjugated
// difference: every term, and T, keeps its bits. Row k of T is
// planeSumsVec over the terms, row k's components the coefficients.
func realForm(ws *Workspace, snaps [][]complex128, n, ng int) error {
	if len(snaps) == 0 {
		return errors.New("music: no snapshots")
	}
	sub := n - ng + 1
	cs := (sub + 3) &^ 3
	pairs := ng / 2
	mid := 2 * pairs * len(snaps) // the first middle-subarray term
	terms := mid + ng%2*len(snaps)
	ws.ry = growPlane(ws.ry, 2*terms*cs)
	re, im := ws.ry[:terms*cs], ws.ry[terms*cs:]
	// cRe, cIm hold the terms' components again, component-major: row k's
	// coefficients, y_r and −y_i, the middle terms' doubled.
	ws.rp = growPlane(ws.rp, cs+2*sub*terms)
	row, cRe, cIm := ws.rp[:cs], ws.rp[cs:cs+sub*terms], ws.rp[cs+sub*terms:]
	for t, x := range snaps {
		if len(x) < n {
			return fmt.Errorf("music: snapshot of %d elements, row of %d", len(x), n)
		}
		for p := 0; p < pairs; p++ {
			d := 2 * (t*pairs + p)
			gr, gi, hr, hi := re[d*cs:][:sub], im[d*cs:][:sub], re[(d+1)*cs:][:sub], im[(d+1)*cs:][:sub]
			project(gr, gi, x[p:p+sub])
			project(hr, hi, x[ng-1-p:ng-1-p+sub])
			for l := range gr {
				gr[l], hr[l] = gr[l]+hr[l], gr[l]-hr[l]
				gi[l], hi[l] = gi[l]+hi[l], gi[l]-hi[l]
				cRe[l*terms+d], cRe[l*terms+d+1] = gr[l], hr[l]
				cIm[l*terms+d], cIm[l*terms+d+1] = -gi[l], -hi[l]
			}
		}
		if ng%2 == 1 {
			d := mid + t
			mr, mi := re[d*cs:][:sub], im[d*cs:][:sub]
			project(mr, mi, x[pairs:pairs+sub])
			for l := range mr {
				cRe[l*terms+d], cIm[l*terms+d] = 2*mr[l], -2*mi[l]
			}
		}
	}

	ws.sym = growPlane(ws.sym, sub*sub)
	w := 1 / float64(2*ng*len(snaps))
	var trace float64
	for k := 0; k < sub; k++ {
		kRe, kIm := cRe[k*terms:(k+1)*terms], cIm[k*terms:(k+1)*terms]
		for l := max(k, planeSumsVec(row, 0, kRe, kIm, re, im, cs)); l < sub; l++ {
			var acc float64
			for d := range kRe {
				acc += kRe[d]*re[d*cs+l] - kIm[d]*im[d*cs+l]
			}
			row[l] = acc
		}
		for l := k; l < sub; l++ {
			ws.sym[k*sub+l] = row[l] * w
		}
		trace += ws.sym[k*sub+k]
	}
	// Every sample reaches the diagonal squared, so a NaN or ±Inf one
	// (or an overflow) leaves the trace NaN or +Inf.
	if !(trace <= math.MaxFloat64) {
		return errors.New("music: non-finite snapshots")
	}
	return nil
}

// project writes y = Qᴴ·x for one subarray snapshot x into yr and yi:
// y[i] = (x[i] + x[n−1−i])/√2 and y[off+i] = −i·(x[i] − x[n−1−i])/√2 for
// i < h, and the odd middle y[h] = x[h].
func project(yr, yi []float64, x []complex128) {
	n := len(x)
	h := n / 2
	off := n - h
	for i := 0; i < h; i++ {
		p, q := x[i], x[n-1-i]
		yr[i] = (real(p) + real(q)) * (1 / math.Sqrt2)
		yi[i] = (imag(p) + imag(q)) * (1 / math.Sqrt2)
		yr[off+i] = (imag(p) - imag(q)) * (1 / math.Sqrt2)
		yi[off+i] = (real(q) - real(p)) * (1 / math.Sqrt2)
	}
	if off > h {
		yr[h], yi[h] = real(x[h]), imag(x[h])
	}
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
