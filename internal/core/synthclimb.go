package core

// The rotation-guarded hill climb. The compass search's only
// remaining per-probe transcendental was one atan2 per AP per probe
// (scoreTabs: bearing → BinLookup → lerp). This file removes it from
// the dominant case — rejected probes — with a certified-bound guard:
// at the accepted position the climb caches, per AP, the exact
// fl-computed spectrum position (bin + fraction, captured from the
// scalar scorer itself) and the AP→position offset vector. A probe
// displaces that vector by a known step d, rotating the bearing by
// δ = atan(cross/dot); for small δ the guard brackets the probe's
// spectrum position in a narrow interval around pos + (cross/dot)·
// n/(2π) using |atan t − t| ≤ |t|³/3 plus margins that over-bound
// every floating-point error in the chain by orders of magnitude
// (derivation at apProbeBound). The per-AP log-table contribution
// over that interval has an exact upper bound (lerp endpoints within
// one bin segment, table maxima across segments); if the summed upper
// bound cannot beat the current score, the exact scorer would have
// rejected the probe too, so the climb skips it — no atan2, identical
// decision. Any probe the guard cannot certify (large rotation, a
// position too close to an AP, a wide interval) falls through to the
// exact scalar scorer, and accepted probes always score exactly, so
// the accepted trajectory — every intermediate position, the final
// fix, and its score — is bit-for-bit the scalar path's. Pinned by
// TestHillClimbGuardedMatchesScalar here and by the 205-scene testbed
// pin (TestKernelsExactOn205Scenes).

import (
	"math"

	"repro/internal/geom"
	"repro/internal/music"
)

// scoreTabsCapture is scoreTabs plus a capture of each AP's continuous
// spectrum position (bin index + fraction — exactly BinLookup's pos
// value, since pos = float64(int(pos)) + (pos − float64(int(pos)))
// reconstructs the original float: the integer split is exact). The
// accumulation tree is identical to scoreTabs, so the returned score
// is bit-identical.
func scoreTabsCapture(x geom.Point, aps []APSpectrum, logTabs [][]float64, pos []float64) float64 {
	l := 0.0
	for a, ap := range aps {
		b, f := music.BinLookup(ap.Pos.Bearing(x), ap.Spectrum.Bins())
		tab := logTabs[a]
		l += tab[b]*(1-f) + tab[b+1]*f
		pos[a] = float64(b) + f
	}
	return l
}

// climbState refreshes the per-AP offset vectors and squared ranges
// for the current accepted position.
func climbState(cur geom.Point, aps []APSpectrum, dx, dy, r2 []float64) {
	for a := range aps {
		ux := cur.X - aps[a].Pos.X
		uy := cur.Y - aps[a].Pos.Y
		dx[a], dy[a], r2[a] = ux, uy, ux*ux+uy*uy
	}
}

// apProbeBound returns an upper bound on one AP's log-table
// contribution at the probe position cur+d, or ok=false when no
// certified bound is available and the caller must score exactly.
//
// Let u = cur − ap (cached: dx, dy, r2 = ‖u‖²) and v = u + d. The
// probe's bearing differs from the accepted position's by
// δ = atan2(u×v, u·v) = atan2(dx·d.Y − dy·d.X, r² + dx·d.X + dy·d.Y),
// and in spectrum-position units the probe sits at
// pos + δ·n/(2π) (mod n). With t = cross/dot and dot > 0,
// δ = atan(t) ∈ [t − |t|³/3, t]. The interval half-width eb stacks:
//
//   - |atan t − t| ≤ |t|³/3 (exact analytic bound);
//   - the fl error of cross (absolute, ≤ ~4ε·(|dx·d.Y|+|dy·d.X|)),
//     dot (relative, ≤ ~4ε given dot ≥ dotMag/4), and the division —
//     covered at 100× margin by 1e-13·(crossMag/dot + |t|);
//   - the deviation of the cached pos and the probe's fl-computed pos
//     from the true bearings (atan2 ≤ 1 ulp, component subtractions
//     ≤ ε each, BinLookup's scale/Mod a few ulps of pos, Bearing's
//     +2π wrap one ulp) — all ≪ the flat 1e-9-bin slack, given the
//     r² > 1e-4 gate below (within 1 cm of an AP the bearing's
//     conditioning degrades, so the guard declines).
//
// The exact path's value at any position inside the interval is then
// bounded by the lerp endpoints when the interval stays inside one
// bin segment (the lerp is linear there) or by the covered table
// values across up to four segments, plus 1e-12 for the bound's own
// lerp rounding. Every margin is conservative by ≥2 orders of
// magnitude, so ub ≥ the exact scorer's contribution always.
func apProbeBound(pos, dx, dy, r2 float64, d geom.Vec, tab []float64, n int) (ub float64, ok bool) {
	if r2 <= 1e-4 {
		return 0, false
	}
	px, py := dx*d.X, dy*d.Y
	cross := dx*d.Y - dy*d.X
	dot := r2 + px + py
	ax, ay := math.Abs(px), math.Abs(py)
	dotMag := r2 + ax + ay
	if dot <= 0.25*dotMag {
		return 0, false
	}
	t := cross / dot
	if t >= 0.3 || t <= -0.3 {
		return 0, false
	}
	at := math.Abs(t)
	crossMag := math.Abs(dx*d.Y) + math.Abs(dy*d.X)
	errT := at*at*at*(1.0/3.0) + 1e-13*(crossMag/dot+at)
	nf := float64(n)
	binsPer := nf / (2 * math.Pi)
	eb := errT*binsPer + 1e-9
	lo := pos + t*binsPer - eb
	hi := pos + t*binsPer + eb
	for lo < 0 {
		lo += nf
		hi += nf
	}
	jLo, jHi := int(lo), int(hi)
	if jHi-jLo > 3 {
		return 0, false
	}
	if jLo == jHi {
		// One bin segment: the contribution is linear in pos here, so
		// the max over the interval is the larger lerp endpoint.
		j := jLo % n
		fl := lo - float64(jLo)
		fh := hi - float64(jLo)
		t0, t1 := tab[j], tab[j+1]
		vLo := t0*(1-fl) + t1*fl
		vHi := t0*(1-fh) + t1*fh
		if vHi > vLo {
			vLo = vHi
		}
		return vLo + 1e-12, true
	}
	m := math.Inf(-1)
	for j := jLo; j <= jHi; j++ {
		jm := j % n
		if v := tab[jm]; v > m {
			m = v
		}
		if v := tab[jm+1]; v > m {
			m = v
		}
	}
	return m + 1e-12, true
}

// climbPruned reports whether the guard certifies that the exact
// scorer would reject the probe cur+d: the summed per-AP upper bounds
// (plus 1e-9 covering the sum's own rounding) cannot exceed curL. A
// false return means "score exactly", not "accept".
func climbPruned(aps []APSpectrum, logTabs [][]float64, pos, dx, dy, r2 []float64, d geom.Vec, curL float64) bool {
	ub := 0.0
	for a := range aps {
		b, ok := apProbeBound(pos[a], dx[a], dy[a], r2[a], d, logTabs[a], aps[a].Spectrum.Bins())
		if !ok {
			return false
		}
		ub += b
	}
	return ub+1e-9 <= curL
}

// hillClimbGuarded is hillClimbTabs with the rotation guard: same
// probe sequence, same bounds checks, same accept condition, but
// probes whose certified upper bound cannot beat the current score
// are rejected without evaluating a bearing. Scratch lives in ws
// (zero-alloc steady state).
func (sg *SynthGrid) hillClimbGuarded(ws *synthWorkspace, start geom.Point, aps []APSpectrum) (geom.Point, float64) {
	logTabs := ws.logTabs
	step := sg.spec.Cell
	min, max := sg.min, sg.max
	n := len(aps)
	ws.hcPos = growFloats(ws.hcPos, n)
	ws.hcDx = growFloats(ws.hcDx, n)
	ws.hcDy = growFloats(ws.hcDy, n)
	ws.hcR2 = growFloats(ws.hcR2, n)
	ws.hcProbe = growFloats(ws.hcProbe, n)
	cur := start
	curL := scoreTabsCapture(cur, aps, logTabs, ws.hcPos)
	climbState(cur, aps, ws.hcDx, ws.hcDy, ws.hcR2)
	var probes, pruned int64
	for step > 0.01 {
		improved := false
		for _, d := range [4]geom.Vec{{X: step}, {X: -step}, {Y: step}, {Y: -step}} {
			cand := cur.Add(d)
			if cand.X < min.X || cand.X > max.X || cand.Y < min.Y || cand.Y > max.Y {
				continue
			}
			probes++
			if climbPruned(aps, logTabs, ws.hcPos, ws.hcDx, ws.hcDy, ws.hcR2, d, curL) {
				pruned++
				continue
			}
			if l := scoreTabsCapture(cand, aps, logTabs, ws.hcProbe); l > curL {
				cur, curL = cand, l
				copy(ws.hcPos, ws.hcProbe)
				climbState(cur, aps, ws.hcDx, ws.hcDy, ws.hcR2)
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	if m := sg.metrics; m != nil {
		m.HillProbes.Add(probes)
		m.HillPruned.Add(pruned)
	}
	return cur, curL
}
