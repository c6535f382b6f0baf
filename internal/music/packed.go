package music

// Table-driven spectrum scans. The MUSIC and Bartlett evaluations are
// the per-bin hot loops of the whole pipeline, and both are quadratic
// forms aᴴ·M·a in the steering vector. Two kernels evaluate them:
//
// Lag domain (uniform linear rows). On a ULA a_k(θ) = e^{jkφ(θ)}, so
// a_q·conj(a_p) = a_{q−p} and the form collapses onto the diagonal sums
// m_d = Σ_p M[p,p+d] of the Hermitian matrix:
//
//	aᴴ·M·a = m_0 + 2·Re Σ_{d≥1} m_d·a_d
//
// a_d is table column d, so the scan folds M into its lags once per
// frame and then pays two multiply-adds per lag per bin instead of a
// full matrix-vector product. The ninth antenna sits off the row; its
// one cross column is added explicitly.
//
// Split-plane sum of squares (any geometry). The matrix is packed into
// re/im float64 planes and the form is evaluated term by term, each
// expansion mirroring the complex original's floating-point operation
// tree exactly (see noiseProjection), so it is bit-identical to the
// closure oracles in music.go. It is the scan for non-ULA tables, and the
// certified fallback of the lag-domain MUSIC scan: the lag sum cancels
// towards zero at a MUSIC peak, so any bin whose lag-form denominator
// falls below musicLagGuard·m_0 is recomputed as a sum of squares,
// which cannot cancel.
//
// Exactness: the lag form reassociates the sum, so it matches the sum
// of squares to rounding, not bit for bit — within 1e-9 of the unit
// maximum, pinned by TestLagScansMatchSumOfSquares and, at fix level,
// by the 205-scene sweep in internal/testbed.

import (
	"repro/internal/mat"
)

// musicLagGuard is the fraction of the trace m_0 below which a
// lag-form MUSIC denominator is recomputed by noiseProjection. The lag
// sum's absolute rounding error is a few ulps of m_0 (~1e-15·m_0, table
// rounding included), so above the guard its relative error stays
// under ~1e-11; below it the cancellation-free kernel takes over.
const musicLagGuard = 1e-4

func growPlane(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// MUSICWithTableWS is the table MUSIC scan (Eq. 6): P(θᵢ) =
// 1/‖E_Nᴴ a(θᵢ)‖² over the table's bins, normalized to a unit maximum.
// Scratch and the returned spectrum come from ws. Each table row is
// truncated to en.Rows elements, matching the smoothed subarray.
func MUSICWithTableWS(ws *Workspace, en *mat.Matrix, tab *SteeringTable) *Spectrum {
	return musicWithTable(orFresh(ws), en, tab, en.Rows <= tab.row)
}

// MUSICWithTableRefWS is MUSICWithTableWS forced onto the sum-of-squares
// kernel whatever the table's geometry: the reference the lag-domain
// scan is measured against in tests and `atbench -exp kernels`.
func MUSICWithTableRefWS(ws *Workspace, en *mat.Matrix, tab *SteeringTable) *Spectrum {
	return musicWithTable(orFresh(ws), en, tab, false)
}

// musicWithTable runs the scan in the lag domain when lag is set (the
// caller has checked the rows lie on the table's uniform row) and as a
// plain sum of squares otherwise.
func musicWithTable(ws *Workspace, en *mat.Matrix, tab *SteeringTable, lag bool) *Spectrum {
	rows, cols := en.Rows, en.Cols
	ws.enRe = growPlane(ws.enRe, rows*cols)
	ws.enIm = growPlane(ws.enIm, rows*cols)
	enRe, enIm := ws.enRe, ws.enIm
	// Pack the noise subspace column-major so each column's dot walks
	// contiguous memory.
	for k := 0; k < cols; k++ {
		col := k * rows
		for r := 0; r < rows; r++ {
			v := en.Data[r*cols+k]
			enRe[col+r] = real(v)
			enIm[col+r] = imag(v)
		}
	}

	s := ws.spectrum(tab.bins)
	n := tab.n
	if !lag {
		for i := 0; i < tab.bins; i++ {
			denom := noiseProjection(enRe, enIm, rows, cols, tab.re[i*n:i*n+rows], tab.im[i*n:i*n+rows])
			if denom < 1e-12 {
				denom = 1e-12
			}
			s.P[i] = 1 / denom
		}
		return s.Normalize()
	}

	c0, cRe, cIm := foldNoiseLags(ws, enRe, enIm, rows, cols)
	guard := musicLagGuard * c0
	for i := 0; i < tab.bins; i++ {
		are := tab.re[i*n+1 : i*n+rows]
		aim := tab.im[i*n+1 : i*n+rows]
		denom := c0
		for d, cr := range cRe {
			denom += cr*are[d] - cIm[d]*aim[d]
		}
		if denom < guard {
			denom = noiseProjection(enRe, enIm, rows, cols, tab.re[i*n:i*n+rows], tab.im[i*n:i*n+rows])
			ws.guardFallbacks++
		}
		if denom < 1e-12 {
			denom = 1e-12
		}
		s.P[i] = 1 / denom
	}
	return s.Normalize()
}

// foldNoiseLags folds C = E_N·E_Nᴴ into its diagonal sums c_d =
// Σ_k Σ_p E[p,k]·conj(E[p+d,k]) from the column-major packed subspace.
// It returns c_0 (real: the trace) and, for d = 1..rows−1, the
// pre-doubled 2·c_d in ws-owned planes, so a bin's denominator is
// c_0 + Σ_d (cRe[d−1]·Re a_d − cIm[d−1]·Im a_d).
func foldNoiseLags(ws *Workspace, enRe, enIm []float64, rows, cols int) (c0 float64, cRe, cIm []float64) {
	ws.lagRe = growPlane(ws.lagRe, rows)
	ws.lagIm = growPlane(ws.lagIm, rows)
	cRe, cIm = ws.lagRe, ws.lagIm
	for d := 0; d < rows; d++ {
		var sre, sim float64
		for k := 0; k < cols; k++ {
			ere := enRe[k*rows : k*rows+rows]
			eim := enIm[k*rows : k*rows+rows]
			for p := 0; p+d < rows; p++ {
				sre += ere[p]*ere[p+d] + eim[p]*eim[p+d]
				sim += eim[p]*ere[p+d] - ere[p]*eim[p+d]
			}
		}
		cRe[d], cIm[d] = 2*sre, 2*sim
	}
	return cRe[0] / 2, cRe[1:rows], cIm[1:rows]
}

// noiseProjection returns ‖E_Nᴴ a‖² for one steering vector against the
// column-major packed noise subspace. conj(e)·a accumulates as
// re += fl(fl(er·ar)+fl(ei·ai)), im += fl(fl(er·ai)−fl(ei·ar)) — the
// same two roundings the complex form performs (a sign flip commutes
// with rounding, so fl(x−fl(−y)) = fl(x+fl(y))) — and the squared-
// magnitude accumulation is term-for-term the scalar loop's, so the
// result is bit-identical to the MUSIC oracle's denominator. Columns are
// processed in pairs with register accumulators: each column's dot
// still sums in row order and the result still adds per-column
// magnitudes in column order, but the four independent chains of a pair
// overlap in the pipeline instead of stalling on one serial add chain.
func noiseProjection(enRe, enIm []float64, rows, cols int, sre, sim []float64) float64 {
	var denom float64
	k := 0
	for ; k+1 < cols; k += 2 {
		e0re := enRe[k*rows : k*rows+rows]
		e0im := enIm[k*rows : k*rows+rows]
		e1re := enRe[(k+1)*rows : (k+1)*rows+rows]
		e1im := enIm[(k+1)*rows : (k+1)*rows+rows]
		var d0re, d0im, d1re, d1im float64
		for r := 0; r < rows; r++ {
			ar, ai := sre[r], sim[r]
			d0re += e0re[r]*ar + e0im[r]*ai
			d0im += e0re[r]*ai - e0im[r]*ar
			d1re += e1re[r]*ar + e1im[r]*ai
			d1im += e1re[r]*ai - e1im[r]*ar
		}
		denom += d0re*d0re + d0im*d0im
		denom += d1re*d1re + d1im*d1im
	}
	if k < cols {
		ere := enRe[k*rows : k*rows+rows]
		eim := enIm[k*rows : k*rows+rows]
		var dre, dim float64
		for r := 0; r < rows; r++ {
			ar, ai := sre[r], sim[r]
			dre += ere[r]*ar + eim[r]*ai
			dim += ere[r]*ai - eim[r]*ar
		}
		denom += dre*dre + dim*dim
	}
	return denom
}

// BartlettWithTableWS is the table Bartlett scan: P(θᵢ) =
// Re a(θᵢ)ᴴ·R·a(θᵢ), clamped at zero. Scratch and the returned spectrum
// come from ws. R may cover a leading part of the
// table's uniform row, or the whole row plus the ninth antenna; both
// take the lag form. Anything else takes the generic kernel.
func BartlettWithTableWS(ws *Workspace, r *mat.Matrix, tab *SteeringTable) *Spectrum {
	m := r.Rows
	return bartlettWithTable(orFresh(ws), r, tab, m <= tab.row || (tab.row > 0 && m == tab.row+1 && m == tab.n))
}

// BartlettWithTableRefWS is BartlettWithTableWS forced onto the generic
// kernel (see MUSICWithTableRefWS).
func BartlettWithTableRefWS(ws *Workspace, r *mat.Matrix, tab *SteeringTable) *Spectrum {
	return bartlettWithTable(orFresh(ws), r, tab, false)
}

// bartlettWithTable runs the scan in the lag domain when lag is set
// (the caller has checked R's shape against the table) and through the
// generic R·a kernel otherwise.
func bartlettWithTable(ws *Workspace, r *mat.Matrix, tab *SteeringTable, lag bool) *Spectrum {
	s := ws.spectrum(tab.bins)
	if lag {
		bartlettLagScan(ws, s.P, r, tab)
	} else {
		bartlettGenericScan(ws, s.P, r, tab)
	}
	return s
}

// bartlettLagScan evaluates the quadratic form over R's row block from
// its diagonal sums, plus — when R carries one element beyond the
// table's uniform row — the ninth antenna's cross column and diagonal
// term. Only Re aᴴRa is wanted, which depends on R through its
// Hermitian part alone, so the fold averages R[p,q] with conj(R[q,p])
// and the result holds for any R, exactly Hermitian or not.
func bartlettLagScan(ws *Workspace, p []float64, r *mat.Matrix, tab *SteeringTable) {
	m := r.Rows
	row := m
	if row > tab.row {
		row = tab.row
	}
	herm := func(i, j int) (float64, float64) {
		u, v := r.Data[i*m+j], r.Data[j*m+i]
		return (real(u) + real(v)) / 2, (imag(u) - imag(v)) / 2
	}
	ws.lagRe = growPlane(ws.lagRe, row)
	ws.lagIm = growPlane(ws.lagIm, row)
	rRe, rIm := ws.lagRe, ws.lagIm
	for d := 0; d < row; d++ {
		var sre, sim float64
		for i := 0; i+d < row; i++ {
			re, im := herm(i, i+d)
			sre += re
			sim += im
		}
		if d > 0 {
			sre, sim = 2*sre, 2*sim
		}
		rRe[d], rIm[d] = sre, sim
	}
	r0 := rRe[0]
	rRe, rIm = rRe[1:row], rIm[1:row]

	// Ninth antenna e: the cross terms conj(a_e)·Σ_q R[e,q]·a_q and its
	// conjugate, pre-doubled, plus R[e,e]·|a_e|².
	var xRe, xIm []float64
	var ree float64
	if m > row {
		ws.raRe = growPlane(ws.raRe, row)
		ws.raIm = growPlane(ws.raIm, row)
		xRe, xIm = ws.raRe, ws.raIm
		for q := 0; q < row; q++ {
			re, im := herm(row, q)
			xRe[q], xIm[q] = 2*re, 2*im
		}
		ree = real(r.Data[row*m+row])
	}

	n := tab.n
	for i := 0; i < tab.bins; i++ {
		are := tab.re[i*n : i*n+m]
		aim := tab.im[i*n : i*n+m]
		v := r0
		for d, rr := range rRe {
			v += rr*are[d+1] - rIm[d]*aim[d+1]
		}
		if m > row {
			var sre, sim float64
			for q, xr := range xRe {
				xi := xIm[q]
				sre += xr*are[q] - xi*aim[q]
				sim += xr*aim[q] + xi*are[q]
			}
			er, ei := are[row], aim[row]
			v += er*sre + ei*sim + ree*(er*er+ei*ei)
		}
		if v < 0 {
			v = 0
		}
		p[i] = v
	}
}

// bartlettGenericScan packs R into split planes and evaluates R·a then
// ⟨a, R·a⟩ per bin, mirroring MulVecInto's and VecDot's accumulation
// order, so it is bit-identical to the Bartlett oracle. Only the real part
// of the quadratic form survives, so the R·a intermediate keeps both
// planes but the final dot skips its imaginary half.
func bartlettGenericScan(ws *Workspace, p []float64, r *mat.Matrix, tab *SteeringTable) {
	m := r.Rows
	ws.rRe = growPlane(ws.rRe, m*m)
	ws.rIm = growPlane(ws.rIm, m*m)
	ws.raRe = growPlane(ws.raRe, m)
	ws.raIm = growPlane(ws.raIm, m)
	rRe, rIm, raRe, raIm := ws.rRe, ws.rIm, ws.raRe, ws.raIm
	for i, v := range r.Data {
		rRe[i] = real(v)
		rIm[i] = imag(v)
	}
	n := tab.n
	for i := 0; i < tab.bins; i++ {
		are := tab.re[i*n : i*n+m]
		aim := tab.im[i*n : i*n+m]
		for row := 0; row < m; row++ {
			rre := rRe[row*m : row*m+m]
			rim := rIm[row*m : row*m+m]
			var sre, sim float64
			for j := 0; j < m; j++ {
				rr, ri := rre[j], rim[j]
				ar, ai := are[j], aim[j]
				sre += rr*ar - ri*ai
				sim += rr*ai + ri*ar
			}
			raRe[row] = sre
			raIm[row] = sim
		}
		var v float64
		for j := 0; j < m; j++ {
			v += are[j]*raRe[j] + aim[j]*raIm[j]
		}
		if v < 0 {
			v = 0
		}
		p[i] = v
	}
}
