package mat

// Packed split-plane cyclic Jacobi. The reference solver (EigHermitianRefWS)
// keeps the working matrix as []complex128 and pays complex-multiply
// arithmetic for rotations whose left factor is purely real: every
// cs*x costs four multiplies and two adds even though cs has no
// imaginary part, and every element touch re-derives i*Cols+j. This
// kernel stores the Hermitian work matrix and the accumulating
// eigenvector matrix as separate re/im float64 planes (row-major, the
// layout that benchmarked ahead of interleaved on the ≤16×16 sizes
// ArrayTrack produces) and expands each complex rotation into the
// minimal real-arithmetic form.
//
// Exactness contract: for every finite input the packed kernel performs
// the same sequence of floating-point operations as the reference, with
// one class of exceptions — products by a coefficient that is exactly
// zero (the imaginary part of cs, which the reference multiplies in and
// this kernel drops). Dropping fl(0·x) terms can change only the *sign*
// of zero results: a zero-sign difference propagates only to other
// zeros under +, −, ×, never flips a comparison (±0 compare equal and
// neither is > the other), and cannot reach a nonzero value. Every
// control-flow decision the solver takes — the Hermitian gate, the
// per-sweep off-diagonal-norm stop, the per-pair pivot skip (both use
// magnitudes, which square zero signs away), the rotation-angle branch,
// and the eigenvalue sort — therefore evaluates identically, so the
// rotation sequence is identical and eigenvalues/eigenvectors are
// value-identical (== as float64) to the reference. The phase factor
// keeps the runtime's complex division (Smith's algorithm) rather than
// a hand expansion precisely to stay on the reference's rounding.
// TestEigPackedMatchesRef pins this over random Hermitian matrices of
// every supported order.

import (
	"errors"
	"math"
)

// EigHermitianWS computes the full eigendecomposition of a Hermitian
// matrix using the packed split-plane cyclic Jacobi kernel, drawing
// every buffer from ws, so repeated calls with one workspace are
// allocation-free in steady state. The returned Eig aliases ws and is
// valid only until the next call with the same workspace; a nil ws
// means a fresh workspace, whose result is
// the caller's to keep. Results are value-identical to
// EigHermitianRefWS.
func EigHermitianWS(a *Matrix, ws *EigWorkspace) (Eig, error) {
	if ws == nil {
		ws = &EigWorkspace{}
	}
	n := a.Rows
	if a.Cols != n {
		return Eig{}, errors.New("mat: EigHermitian needs a square matrix")
	}
	scale := a.FrobeniusNorm()
	if scale == 0 {
		return ws.zeroEig(n), nil
	}
	if !a.IsHermitian(1e-9 * scale) {
		return Eig{}, ErrNotHermitian
	}

	ws.ensurePacked(n)
	wre, wim := ws.wre, ws.wim
	vre, vim := ws.vre, ws.vim

	// Pack the input, forcing exact Hermitian symmetry exactly as the
	// reference does: real diagonal, off-diagonal pairs replaced by
	// (a[i][j] + conj(a[j][i]))/2. The reference's complex division by
	// (2+0i) reduces componentwise to re/2, im/2 under Smith's
	// algorithm, so the packed form below rounds identically.
	for i := 0; i < n; i++ {
		wre[i*n+i] = real(a.Data[i*n+i])
		wim[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			hij := a.Data[i*n+j]
			hji := a.Data[j*n+i]
			sr := (real(hij) + real(hji)) / 2
			si := (imag(hij) - imag(hji)) / 2
			wre[i*n+j], wim[i*n+j] = sr, si
			wre[j*n+i], wim[j*n+i] = sr, -si
		}
	}
	for i := range vre {
		vre[i], vim[i] = 0, 0
	}
	for i := 0; i < n; i++ {
		vre[i*n+i] = 1
	}

	const maxSweeps = 60
	tol := 1e-14 * scale
	thresh := tol / float64(n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if packedOffDiagNorm(wre, wim, n) <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				are, aim := wre[p*n+q], wim[p*n+q]
				// One Hypot serves both the pivot-skip test and the
				// rotation (the reference computes it twice with the
				// same operands — identical value).
				mag := math.Hypot(are, aim)
				if mag <= thresh {
					continue
				}
				packedJacobiRotate(wre, wim, vre, vim, n, p, q, are, aim, mag)
			}
		}
	}

	// Diagonal → eigenvalues, sort ascending (stable insertion sort,
	// matching sortEigWS's comparisons), emit the permuted columns as a
	// complex matrix for the subspace consumers.
	vals := ws.vals
	for i := 0; i < n; i++ {
		vals[i] = wre[i*n+i]
	}
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && vals[idx[j-1]] > vals[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	svals := ws.sortedVals(n)
	vecs := ReuseMatrix(ws.vecs, n, n)
	ws.vecs = vecs
	for k, src := range idx {
		svals[k] = vals[src]
		cre := vre[src*n : src*n+n] // eigenvector columns are stored column-major
		cim := vim[src*n : src*n+n]
		for r := 0; r < n; r++ {
			vecs.Data[r*n+k] = complex(cre[r], cim[r])
		}
	}
	return Eig{Values: svals, Vectors: vecs}, nil
}

// packedJacobiRotate is jacobiRotate on split planes: a unitary plane
// rotation in the (p,q) plane zeroing w[p][q], applied two-sided to w
// and one-sided to the eigenvector columns. are/aim/mag are the pivot
// element and its magnitude, already loaded by the sweep loop.
//
// Beyond the plane layout, two structure exploits halve the work while
// staying on the reference's values:
//
//  1. Hermitian mirroring. The reference updates columns p,q from the
//     pre-rotation state, then rows p,q. Because the iterate is kept
//     *exactly* conjugate-symmetric (the symmetrization pass writes
//     conjugate pairs, and every rounding is sign-symmetric: fl(−x) =
//     −fl(x), fl(a−b) = −fl(b−a)), the reference's row-pass results
//     for k ∉ {p,q} are the exact conjugates of its column-pass
//     results. This kernel therefore computes only the row pass
//     (contiguous) and stores conjugates into the columns — no second
//     set of multiplies. The 2×2 overlap block, which the reference
//     computes sequentially (row pass reading column-pass outputs), is
//     replicated term by term below; only the real diagonal survives
//     its pivot cleanup.
//  2. The phase division (are+i·aim)/(mag+0i) through the runtime's
//     Smith algorithm reduces, for a real positive divisor, to exactly
//     fl(are/mag) and fl(aim/mag) (the ratio term is a signed zero),
//     so two scalar divides replace the complex128div call.
func packedJacobiRotate(wre, wim, vre, vim []float64, n, p, q int, are, aim, mag float64) {
	app := wre[p*n+p]
	aqq := wre[q*n+q]
	// Phase factor so the rotated off-diagonal element is real:
	// apq = mag·e^{iφ}.
	phre := are / mag
	phim := aim / mag

	// Classic symmetric Jacobi angle on the "realified" 2×2 block.
	theta := (aqq - app) / (2 * mag)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	// sp = s·phase; cs = c (purely real).
	spre := s * phre
	spim := s * phim

	// Rows p,q over all k ∉ {p,q} (contiguous), with conjugate stores
	// into columns p,q:
	//   w[p,k] = c·w[p,k] − sp·w[q,k]
	//   w[q,k] = conj(sp)·w[p,k] + c·w[q,k]
	//   w[k,p] = conj(w[p,k]);  w[k,q] = conj(w[q,k])
	rpre := wre[p*n : p*n+n]
	rpim := wim[p*n : p*n+n]
	rqre := wre[q*n : q*n+n]
	rqim := wim[q*n : q*n+n]
	ip, iq := p, q
	for k := 0; k < n; k++ {
		if k == p || k == q {
			ip += n
			iq += n
			continue
		}
		wpkre, wpkim := rpre[k], rpim[k]
		wqkre, wqkim := rqre[k], rqim[k]
		npre := c*wpkre - (spre*wqkre - spim*wqkim)
		npim := c*wpkim - (spre*wqkim + spim*wqkre)
		nqre := (spre*wpkre + spim*wpkim) + c*wqkre
		nqim := (spre*wpkim - spim*wpkre) + c*wqkim
		rpre[k], rpim[k] = npre, npim
		rqre[k], rqim[k] = nqre, nqim
		wre[ip], wim[ip] = npre, -npim
		wre[iq], wim[iq] = nqre, -nqim
		ip += n
		iq += n
	}
	// 2×2 overlap block, replicating the reference's sequence: column
	// pass from pre-rotation values (wpp=(app,0), wpq=(are,aim),
	// wqp=(are,−aim), wqq=(aqq,0)), then the row pass on those outputs.
	// Off-diagonals and diagonal imaginary parts die in pivot cleanup,
	// so only the surviving real diagonals are computed.
	h := spre*are + spim*aim
	wppre := c*app - h        // re of column-pass w[p][p]
	wqpre := c*are - spre*aqq // column-pass w[q][p]
	wqpim := spim*aqq - c*aim
	wpqre := spre*app + c*are // column-pass w[p][q]
	wpqim := spim*app + c*aim
	wqqre := h + c*aqq // re of column-pass w[q][q]
	newpp := c*wppre - (spre*wqpre - spim*wqpim)
	newqq := (spre*wpqre + spim*wpqim) + c*wqqre
	rpre[p], rpim[p] = newpp, 0
	rqre[q], rqim[q] = newqq, 0
	rpre[q], rpim[q] = 0, 0
	rqre[p], rqim[p] = 0, 0

	// Eigenvector columns p,q — stored column-major (vre[col*n+row]),
	// so this update is contiguous too. Same operation tree as the
	// reference's v-column update.
	vpre := vre[p*n : p*n+n]
	vpim := vim[p*n : p*n+n]
	vqre := vre[q*n : q*n+n]
	vqim := vim[q*n : q*n+n]
	for k := 0; k < n; k++ {
		vkpre, vkpim := vpre[k], vpim[k]
		vkqre, vkqim := vqre[k], vqim[k]
		vpre[k] = c*vkpre - (spre*vkqre + spim*vkqim)
		vpim[k] = c*vkpim - (spre*vkqim - spim*vkqre)
		vqre[k] = (spre*vkpre - spim*vkpim) + c*vkqre
		vqim[k] = (spre*vkpim + spim*vkpre) + c*vkqim
	}
}

// packedOffDiagNorm is offDiagNorm on split planes: same element order,
// same accumulation tree, so the sweep-termination decision is
// identical to the reference's.
func packedOffDiagNorm(wre, wim []float64, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		row := i * n
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			re, im := wre[row+j], wim[row+j]
			s += re*re + im*im
		}
	}
	return math.Sqrt(s)
}
