package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
)

// TestSpectrumConjugateReversalSymmetry is a metamorphic check of the
// frame-spectrum chain, needing no ground truth and no reference solver.
//
// Reversing the row's element order and conjugating every sample
// (x → J·x̄) maps the correlation R to J·R̄·J, which forward–backward
// averaging maps back to the same matrix — so ComputeSpectrumWS must
// return the same spectrum. Conjugation alone maps the averaged matrix
// to its conjugate, whose subspaces are the conjugates: every arrival
// moves from phase slope φ to −φ, so on a row along the x axis the
// spectrum is mirrored about broadside (bearing θ ↔ π − θ). The second
// half is what a fast-equals-reference gate cannot check: it fails if
// the real form's imaginary block has the wrong sign or order on the way
// in, on the way out, or both.
func TestSpectrumConjugateReversalSymmetry(t *testing.T) {
	underBothKernelSets(t, testSpectrumConjugateReversalSymmetry)
}

func testSpectrumConjugateReversalSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	opt := Options{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      10,
		SampleOffset:    5,
		ForwardBackward: true,
		Steering:        NewSteeringCache(0),
	}
	mapStreams := func(streams [][]complex128, reverse bool) [][]complex128 {
		out := make([][]complex128, len(streams))
		for k := range out {
			src := streams[k]
			if reverse {
				src = streams[len(streams)-1-k]
			}
			out[k] = make([]complex128, len(src))
			for t, v := range src {
				out[k][t] = cmplx.Conj(v)
			}
		}
		return out
	}
	var ws Workspace
	var worstSame, worstMirror float64
	for _, n := range []int{8, 7} { // even and odd smoothed order
		a := array.NewLinear(geom.Pt(3, 4), 0, n, lambda)
		for trial := 0; trial < 20; trial++ {
			bearings := []float64{rng.Float64() * math.Pi, rng.Float64() * math.Pi, rng.Float64() * math.Pi}
			amps := []complex128{1, cmplx.Rect(0.7, rng.Float64()*6), cmplx.Rect(0.4, rng.Float64()*6)}
			streams := synth(a, bearings, amps, 20, true, 0.05, rng)[:n]
			base, err := ComputeSpectrumWS(&ws, a, streams, opt)
			if err != nil {
				t.Fatal(err)
			}
			same, err := ComputeSpectrumWS(&ws, a, mapStreams(streams, true), opt)
			if err != nil {
				t.Fatal(err)
			}
			mirrored, err := ComputeSpectrumWS(&ws, a, mapStreams(streams, false), opt)
			if err != nil {
				t.Fatal(err)
			}
			bins := base.Bins()
			for b, v := range base.P {
				worstSame = math.Max(worstSame, math.Abs(same.P[b]-v))
				worstMirror = math.Max(worstMirror, math.Abs(mirrored.P[(bins/2-b+bins)%bins]-v))
			}
		}
	}
	if worstSame > 1e-12 {
		t.Errorf("x → J·x̄ moved the spectrum by %g of unit max, want ≤ 1e-12", worstSame)
	}
	if worstMirror > 1e-9 {
		t.Errorf("x → x̄ is not the broadside mirror image: off by %g of unit max, want ≤ 1e-9", worstMirror)
	}
	t.Logf("x → J·x̄: spectrum within %.2g; x → x̄: broadside mirror within %.2g", worstSame, worstMirror)
}
