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
// full matrix-vector product. The table's planes are lag-major (column
// d of every bin contiguous), so planeSums takes the sum one lag at a
// time with the bin index innermost: unit-stride streams, no per-bin
// slicing, and each bin still receives its terms in the order it always
// did — bit-identical to summing bin by bin. The ninth antenna sits off
// the row; its one cross column is two more such sums.
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
// by the 205-scene sweep in internal/testbed. The sum-of-squares
// kernels gather the one steering row they walk out of the planes.
//
// Vector bodies. Four loops here do independent work per bin: planeSums,
// finishMUSIC's guard/clamp/invert/maximum pass, the divide by the
// maximum (Spectrum.Normalize's too) and the ninth antenna's combine and
// clamp. Each opens with a call that takes its leading bins four at a
// time (planes_amd64.s, AVX2) and returns how many it took; the Go loop
// beneath takes the rest — every bin, without AVX2. A lane runs the Go
// loop's operations in the Go loop's order, each rounded once (no FMA;
// nor does the compiler fuse on amd64 below GOAMD64=v3), so a bin's bits
// do not depend on which body took it (TestPlaneKernelsMatchGo). Sums
// across a row (lag folds, traces) would need reassociating: scalar.

import (
	"math"

	"repro/internal/mat"
)

// musicLagGuard is the fraction of the trace m_0 below which a
// lag-form MUSIC denominator is recomputed by noiseProjection. The lag
// sum's absolute rounding error is a few ulps of m_0 (~1e-15·m_0, table
// rounding included), so above the guard its relative error stays
// under ~1e-11; below it the cancellation-free kernel takes over.
const musicLagGuard = 1e-4

// useAVX2 selects the vector bodies: CPUID's answer, never a setting.
var useAVX2 = cpuHasAVX2()

// Kernels names the bodies the bin-parallel loops run here: "avx2" or "generic".
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

func growPlane(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growPlanes resizes a workspace's re/im scratch pair to n and returns it.
func growPlanes(re, im *[]float64, n int) ([]float64, []float64) {
	*re, *im = growPlane(*re, n), growPlane(*im, n)
	return *re, *im
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
// scan is measured against in tests.
func MUSICWithTableRefWS(ws *Workspace, en *mat.Matrix, tab *SteeringTable) *Spectrum {
	return musicWithTable(orFresh(ws), en, tab, false)
}

// musicWithTable runs the scan in the lag domain when lag is set (the
// caller has checked the rows lie on the table's uniform row) and as a
// plain sum of squares otherwise.
func musicWithTable(ws *Workspace, en *mat.Matrix, tab *SteeringTable, lag bool) *Spectrum {
	rows, cols := en.Rows, en.Cols
	enRe, enIm := growPlanes(&ws.enRe, &ws.enIm, rows*cols)
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
	p := s.P
	aRe, aIm := growPlanes(&ws.raRe, &ws.raIm, rows)
	// guard stays 0 on the sum-of-squares path: no denominator is below it.
	var guard float64
	if lag {
		c0, cRe, cIm := foldNoiseLags(ws, enRe, enIm, rows, cols)
		planeSums(p, c0, cRe, cIm, tab, 1)
		guard = musicLagGuard * c0
	} else {
		for i := range p {
			tab.gather(i, aRe, aIm)
			p[i] = noiseProjection(enRe, enIm, rows, cols, aRe, aIm)
		}
	}
	finishMUSIC(ws, p, guard, tab, rows, cols)
	return s
}

// finishMUSIC turns the denominators in p into the unit-maximum spectrum:
// guard (recompute by noiseProjection from the subspace packed in ws),
// clamp, invert and find the maximum in one pass, then divide by it.
func finishMUSIC(ws *Workspace, p []float64, guard float64, tab *SteeringTable, rows, cols int) {
	aRe, aIm := ws.raRe[:rows], ws.raIm[:rows]
	max := math.Inf(-1)
	for i := 0; i < len(p); {
		// The vector body stops at a group of four holding a guarded bin,
		// and at the tail; the scalar body takes that much and hands back.
		n, m := musicFinishVec(p[i:], guard, max)
		i, max = i+n, m
		hi := len(p)
		if useAVX2 {
			hi = min(i+4, hi)
		}
		for ; i < hi; i++ {
			denom := p[i]
			if denom < guard {
				tab.gather(i, aRe, aIm)
				denom = noiseProjection(ws.enRe, ws.enIm, rows, cols, aRe, aIm)
				ws.guardFallbacks++
			}
			if denom < 1e-12 {
				denom = 1e-12
			}
			v := 1 / denom
			if v > max {
				max = v
			}
			p[i] = v
		}
	}
	if max > 0 {
		for i := divVec(p, max); i < len(p); i++ {
			p[i] /= max
		}
	}
}

// planeSums fills p[i] = c0 + Σ_d (cRe[d]·Re a_{k0+d}(θᵢ) − cIm[d]·Im a_{k0+d}(θᵢ)),
// d = 0..len(cRe)−1: one pass per term over its two planes, the first
// six fused into one pass when there are that many (the shipped 7-row
// scan is exactly that pass). Each bin's terms arrive in order d either
// way (TestLagScansBitIdenticalToRowMajor).
func planeSums(p []float64, c0 float64, cRe, cIm []float64, tab *SteeringTable, k0 int) {
	lo := planeSumsVec(p, c0, cRe, cIm, tab.re[k0*tab.bins:], tab.im[k0*tab.bins:], tab.bins)
	p = p[lo:]
	d := 0
	if len(cRe) >= 6 {
		re0, im0 := tab.column(k0, lo, len(p))
		re1, im1 := tab.column(k0+1, lo, len(p))
		re2, im2 := tab.column(k0+2, lo, len(p))
		re3, im3 := tab.column(k0+3, lo, len(p))
		re4, im4 := tab.column(k0+4, lo, len(p))
		re5, im5 := tab.column(k0+5, lo, len(p))
		c0r, c0i, c1r, c1i, c2r, c2i := cRe[0], cIm[0], cRe[1], cIm[1], cRe[2], cIm[2]
		c3r, c3i, c4r, c4i, c5r, c5i := cRe[3], cIm[3], cRe[4], cIm[4], cRe[5], cIm[5]
		for i := range p {
			p[i] = c0 + (c0r*re0[i] - c0i*im0[i]) + (c1r*re1[i] - c1i*im1[i]) + (c2r*re2[i] - c2i*im2[i]) +
				(c3r*re3[i] - c3i*im3[i]) + (c4r*re4[i] - c4i*im4[i]) + (c5r*re5[i] - c5i*im5[i])
		}
		d = 6
	} else {
		for i := range p {
			p[i] = c0
		}
	}
	for ; d < len(cRe); d++ {
		cr, ci := cRe[d], cIm[d]
		re, im := tab.column(k0+d, lo, len(p))
		for i, v := range p {
			p[i] = v + (cr*re[i] - ci*im[i])
		}
	}
}

// foldNoiseLags folds C = E_N·E_Nᴴ into its diagonal sums c_d =
// Σ_k Σ_p E[p,k]·conj(E[p+d,k]) from the column-major packed subspace.
// It returns c_0 (real: the trace) and, for d = 1..rows−1, the
// pre-doubled 2·c_d in ws-owned planes, so a bin's denominator is
// c_0 + Σ_d (cRe[d−1]·Re a_d − cIm[d−1]·Im a_d).
func foldNoiseLags(ws *Workspace, enRe, enIm []float64, rows, cols int) (c0 float64, cRe, cIm []float64) {
	cRe, cIm = growPlanes(&ws.lagRe, &ws.lagIm, rows)
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
	ws = orFresh(ws)
	if m := r.Rows; m <= tab.row || (tab.row > 0 && m == tab.row+1 && m == tab.n) {
		return bartlettLagScan(ws, r, tab)
	}
	return bartlettGenericScan(ws, r, tab)
}

// BartlettWithTableRefWS is BartlettWithTableWS forced onto the generic
// kernel (see MUSICWithTableRefWS).
func BartlettWithTableRefWS(ws *Workspace, r *mat.Matrix, tab *SteeringTable) *Spectrum {
	return bartlettGenericScan(orFresh(ws), r, tab)
}

// bartlettLagScan evaluates the quadratic form over R's row block from
// its diagonal sums, plus — when R carries one element beyond the
// table's uniform row — the ninth antenna's cross column and diagonal
// term. Only Re aᴴRa is wanted, which depends on R through its
// Hermitian part alone, so the fold averages R[p,q] with conj(R[q,p])
// and the result holds for any R, exactly Hermitian or not.
func bartlettLagScan(ws *Workspace, r *mat.Matrix, tab *SteeringTable) *Spectrum {
	s := ws.spectrum(tab.bins)
	p, m := s.P, r.Rows
	row := min(m, tab.row)
	herm := func(i, j int) (float64, float64) {
		u, v := r.Data[i*m+j], r.Data[j*m+i]
		return (real(u) + real(v)) / 2, (imag(u) - imag(v)) / 2
	}
	rRe, rIm := growPlanes(&ws.lagRe, &ws.lagIm, row)
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

	planeSums(p, r0, rRe, rIm, tab, 1)
	if m > row {
		// Ninth antenna e: conj(a_e)·s and its conjugate, s = Σ_q x_q·a_q
		// with x_q = 2·R[e,q], plus R[e,e]·|a_e|². Re s and Im s are plane
		// sums from column 0: Im s = Σ (Im x_q·Re a_q − (−Re x_q)·Im a_q),
		// each term rounding as Re x_q·Im a_q + Im x_q·Re a_q always did.
		ws.raRe = growPlane(ws.raRe, 2*row)
		ws.raIm = growPlane(ws.raIm, row)
		xRe, xIm, xNeg := ws.raRe[:row], ws.raIm, ws.raRe[row:]
		for q := 0; q < row; q++ {
			re, im := herm(row, q)
			xRe[q], xIm[q], xNeg[q] = 2*re, 2*im, -2*re
		}
		sre, sim := growPlanes(&ws.rRe, &ws.rIm, len(p))
		planeSums(sre, 0, xRe, xIm, tab, 0)
		planeSums(sim, 0, xIm, xNeg, tab, 0)
		ree := real(r.Data[row*m+row])
		re, im := tab.column(row, 0, len(p))
		// The vector body also clamps the bins it combines.
		lo := voteCombineVec(p, sre, sim, re, im, ree)
		p, sre, sim, re, im = p[lo:], sre[lo:], sim[lo:], re[lo:], im[lo:]
		for i := range p {
			er, ei := re[i], im[i]
			p[i] += er*sre[i] + ei*sim[i] + ree*(er*er+ei*ei)
		}
	}
	for i, v := range p {
		if v < 0 {
			p[i] = 0
		}
	}
	return s
}

// bartlettGenericScan packs R into split planes and evaluates R·a then
// ⟨a, R·a⟩ per bin, mirroring MulVecInto's and VecDot's accumulation
// order, so it is bit-identical to the Bartlett oracle. Only the real part
// of the quadratic form survives, so the R·a intermediate keeps both
// planes but the final dot skips its imaginary half.
func bartlettGenericScan(ws *Workspace, r *mat.Matrix, tab *SteeringTable) *Spectrum {
	s := ws.spectrum(tab.bins)
	p, m := s.P, r.Rows
	rRe, rIm := growPlanes(&ws.rRe, &ws.rIm, m*m)
	raRe, raIm := growPlanes(&ws.raRe, &ws.raIm, m)
	are, aim := growPlanes(&ws.lagRe, &ws.lagIm, m)
	for i, v := range r.Data {
		rRe[i] = real(v)
		rIm[i] = imag(v)
	}
	for i := range p {
		tab.gather(i, are, aim)
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
	return s
}
