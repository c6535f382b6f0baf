package music_test

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/music"
	"repro/internal/testbed"
)

// centroHermitian returns the forward–backward average of the sample
// correlation of the given snapshots, plus sigma2·I: exactly Hermitian
// and persymmetric, as the pipeline's matrices are.
func centroHermitian(snaps [][]complex128, sigma2 float64) *mat.Matrix {
	r, err := music.CorrelationMatrixWS(nil, snaps)
	if err != nil {
		panic(err)
	}
	r = music.ForwardBackwardWS(nil, r)
	for i := 0; i < r.Rows; i++ {
		r.Data[i*r.Cols+i] += complex(sigma2, 0)
	}
	return r
}

func randomSnapshots(rng *rand.Rand, n, count int) [][]complex128 {
	snaps := make([][]complex128, count)
	for t := range snaps {
		snaps[t] = make([]complex128, n)
		for k := range snaps[t] {
			snaps[t][k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return snaps
}

// testbedMatrices returns the smoothed correlation matrix of every
// frame the 205-scene sweep decomposes: 41 clients × 6 sites × 3 frames
// through the default configuration's chain, 7 × 7 each.
func testbedMatrices(t testing.TB) []*mat.Matrix {
	t.Helper()
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	cfg := opt.Pipeline
	rng := rand.New(rand.NewSource(opt.Seed))
	var ws music.Workspace
	var out []*mat.Matrix
	for _, c := range tb.Clients {
		for _, site := range tb.Sites {
			n := tb.NewArray(site, opt.Capture).N
			for _, f := range tb.CaptureClient(c, site, opt.Capture, rng) {
				r, err := music.CalibratedCorrelationWS(&ws, f.Streams[:n], core.DefaultSampleOffset, cfg.MaxSamples, nil)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := music.SpatialSmoothWS(&ws, music.ForwardBackwardWS(&ws, r), cfg.SmoothingGroups)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rs.Clone())
			}
		}
	}
	return out
}

// projector returns E·Eᴴ.
func projector(e *mat.Matrix) *mat.Matrix { return e.Mul(e.H()) }

// compareSplits decomposes r by the real form and by the general solver
// and holds the two to the stated bars: eigenvalues within 1e-13 of the
// largest, the same signal count, noise projectors within 1e-12. It
// returns the two deviations.
func compareSplits(t *testing.T, name string, r *mat.Matrix, thresh float64, maxD int) (valDev, projDev float64) {
	t.Helper()
	var wsReal, wsRef music.Workspace
	vals, ok := music.RealEig(&wsReal, r)
	if !ok {
		t.Fatalf("%s: a centro-Hermitian matrix did not take the real form", name)
	}
	ref, err := mat.EigHermitianWS(r, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	top := ref.Values[len(ref.Values)-1]
	for i, v := range vals {
		valDev = math.Max(valDev, math.Abs(v-ref.Values[i])/top)
	}
	if valDev > 1e-13 {
		t.Fatalf("%s: eigenvalues deviate %g of the largest, want ≤ 1e-13\nreal      %v\nhermitian %v", name, valDev, vals, ref.Values)
	}
	got, err := music.NoiseVectors(&wsReal, r, thresh, maxD)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if wsReal.EigFallbacks() != 0 {
		t.Fatalf("%s: the eigen split fell back to the Hermitian solver", name)
	}
	want, _, d, err := music.SubspacesWS(&wsRef, r, thresh, maxD)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: noise subspace is %d×%d, SubspacesWS's %d×%d (D = %d)", name, got.Rows, got.Cols, want.Rows, want.Cols, d)
	}
	pg, pw := projector(got), projector(want)
	for i, v := range pg.Data {
		projDev = math.Max(projDev, cmplx.Abs(v-pw.Data[i]))
	}
	if projDev > 1e-12 {
		t.Fatalf("%s: noise projectors deviate %g, want ≤ 1e-12", name, projDev)
	}
	return valDev, projDev
}

// TestRealSubspaceMatchesHermitian pins the real-arithmetic eigen split
// against the retained Hermitian solver. Eigenvectors are not unique
// (phase, and any basis of a repeated eigenvalue's space), so the bars
// are on what the spectrum depends on: eigenvalues, the signal count D,
// and the noise projector E_N·E_Nᴴ.
func TestRealSubspaceMatchesHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	t.Run("random", func(t *testing.T) {
		var worstVal, worstProj float64
		track := func(v, p float64) {
			worstVal, worstProj = math.Max(worstVal, v), math.Max(worstProj, p)
		}
		for n := 2; n <= 16; n++ {
			for trial := 0; trial < 25; trial++ {
				// Full rank down to a single snapshot, D by threshold
				// and by the cap.
				count := 1 + rng.Intn(2*n)
				name := fmt.Sprintf("n=%d snapshots=%d", n, count)
				r := centroHermitian(randomSnapshots(rng, n, count), 0)
				track(compareSplits(t, name, r, 0.05, n/2))
				track(compareSplits(t, name+" uncapped", r, 1e-6, 0))
			}
			// Rank one: a single plane wave, whose forward–backward
			// average is itself.
			a := array.NewLinear(geom.Pt(0, 0), 0, n, 0.125)
			sv := a.SteeringVectorRow(0.3+float64(n), 0.125)[:n]
			track(compareSplits(t, fmt.Sprintf("n=%d rank-1", n), centroHermitian([][]complex128{sv}, 0), 0.05, n/2))
			// Repeated noise eigenvalues: two sources over a white floor,
			// the noise eigenvalue has multiplicity ≥ n−4.
			snaps := [][]complex128{sv, a.SteeringVectorRow(2.1, 0.125)[:n]}
			track(compareSplits(t, fmt.Sprintf("n=%d white floor", n), centroHermitian(snaps, 0.01), 0.05, n/2))
		}
		t.Logf("orders 2…16: eigenvalues within %.2g of the largest, noise projectors within %.2g", worstVal, worstProj)
	})
	t.Run("zero", func(t *testing.T) {
		// The zero matrix has no preferred subspace; it stays with the
		// solver that defined the answer (identity columns).
		var ws, wsRef music.Workspace
		z := mat.New(7, 7)
		got, err := music.NoiseVectors(&ws, z, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := music.SubspacesWS(&wsRef, z, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equalish(want, 0) || ws.EigFallbacks() != 1 {
			t.Fatalf("zero matrix: not the retained path's answer (fallbacks %d)", ws.EigFallbacks())
		}
	})
	t.Run("testbed", func(t *testing.T) {
		ms := testbedMatrices(t)
		if len(ms) != 738 {
			t.Fatalf("%d testbed matrices, want 738", len(ms))
		}
		var worstVal, worstProj float64
		for i, r := range ms {
			v, p := compareSplits(t, fmt.Sprintf("testbed matrix %d", i), r, 0.05, r.Rows/2)
			worstVal, worstProj = math.Max(worstVal, v), math.Max(worstProj, p)
		}
		t.Logf("%d testbed matrices: same D on all, eigenvalues within %.2g of the largest, noise projectors within %.2g", len(ms), worstVal, worstProj)
	})
}

// TestRealSubspaceGuardFallback: the real form is selected by the
// matrix, and everything that is not centro-Hermitian to 1e-12·‖R‖
// provably takes the retained solver — counted, with that solver's
// result bit for bit and its errors unchanged — while the default
// configuration never does.
func TestRealSubspaceGuardFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	const n = 7
	base := centroHermitian(randomSnapshots(rng, n, 10), 0)
	norm := base.FrobeniusNorm()

	// retained asserts that r takes the fallback and returns exactly
	// SubspacesWS's noise block.
	retained := func(name string, r *mat.Matrix) {
		t.Helper()
		var ws, wsRef music.Workspace
		if _, ok := music.RealEig(&ws, r); ok {
			t.Fatalf("%s: took the real form", name)
		}
		got, err := music.NoiseVectors(&ws, r, 0.05, n/2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ws.EigFallbacks() != 1 {
			t.Fatalf("%s: EigFallbacks = %d, want 1", name, ws.EigFallbacks())
		}
		want, _, _, err := music.SubspacesWS(&wsRef, r, 0.05, n/2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || !got.Equalish(want, 0) {
			t.Fatalf("%s: fallback result is not SubspacesWS's noise block", name)
		}
	}

	// Forward–backward off: a sample correlation matrix is Hermitian,
	// not persymmetric.
	plain, err := music.CorrelationMatrixWS(nil, randomSnapshots(rng, n, 10))
	if err != nil {
		t.Fatal(err)
	}
	retained("forward-backward off", plain)

	// Persymmetry broken at 1e-10·‖R‖, Hermitian kept.
	p := base.Clone()
	p.Data[0*n+2] += complex(1e-10*norm, 0)
	p.Data[2*n+0] += complex(1e-10*norm, 0)
	retained("persymmetry broken at 1e-10", p)

	// Hermitian broken at 1e-10·‖R‖ (inside EigHermitianWS's 1e-9 gate,
	// which symmetrizes it), persymmetry kept.
	h := base.Clone()
	h.Data[0*n+2] += complex(0, 1e-10*norm)
	h.Data[(n-1)*n+n-3] += complex(0, -1e-10*norm)
	retained("Hermitian broken at 1e-10", h)

	// Rounding-level asymmetry stays on the real form.
	tiny := base.Clone()
	tiny.Data[0*n+2] += complex(1e-14*norm, 0)
	var ws music.Workspace
	if _, ok := music.RealEig(&ws, tiny); !ok {
		t.Error("a 1e-14·‖R‖ asymmetry was sent to the fallback")
	}

	// Errors surface as before, and count.
	bad := base.Clone()
	bad.Data[0*n+2] += complex(1e-6*norm, 0)
	if _, err := music.NoiseVectors(&ws, bad, 0.05, n/2); !errors.Is(err, mat.ErrNotHermitian) {
		t.Errorf("non-Hermitian input: error %v, want ErrNotHermitian", err)
	}
	if _, err := music.NoiseVectors(&ws, mat.New(3, 4), 0.05, 1); err == nil {
		t.Error("non-square input: no error")
	}
	// Non-finite input. The deviation scan compares with >, which skips
	// a NaN deviation — and Inf − Inf between an element and its mirror
	// is one — so each of these is refused by the norm test alone: the
	// offending element reaches norm2 as NaN or +Inf.
	inf := math.Inf(1)
	nonFinite := []struct {
		name string
		set  func(m *mat.Matrix)
	}{
		{"NaN element", func(m *mat.Matrix) { m.Data[3] = complex(math.NaN(), 0) }},
		{"NaN imaginary part", func(m *mat.Matrix) { m.Data[2*n+5] = complex(1, math.NaN()) }},
		{"+Inf element", func(m *mat.Matrix) { m.Data[1*n+4] = complex(inf, 0) }},
		{"Inf − Inf pair", func(m *mat.Matrix) {
			// +Inf at (0,2), its transpose and both 180° images: every
			// deviation that touches them is Inf − Inf = NaN, none is +Inf.
			for _, at := range [][2]int{{0, 2}, {2, 0}, {n - 1, n - 3}, {n - 3, n - 1}} {
				m.Data[at[0]*n+at[1]] = complex(inf, 0)
			}
		}},
	}
	for i, c := range nonFinite {
		m := base.Clone()
		c.set(m)
		if _, ok := music.RealEig(&ws, m); ok {
			t.Errorf("%s: took the real form", c.name)
		}
		_, wantErr := mat.EigHermitianWS(m, nil)
		if _, err := music.NoiseVectors(&ws, m, 0.05, n/2); (err == nil) != (wantErr == nil) || !errors.Is(err, wantErr) {
			t.Errorf("%s: error %v, the Hermitian solver's %v", c.name, err, wantErr)
		}
		if got, want := ws.EigFallbacks(), uint64(3+i); got != want {
			t.Errorf("%s: EigFallbacks = %d, want %d", c.name, got, want)
		}
	}

	// Through the spectrum entry: forward–backward off takes the
	// fallback once per frame, the default configuration never — on any
	// of the 738 frames of the 205 scenes.
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	frameRng := rand.New(rand.NewSource(opt.Seed))
	mopt := music.Options{
		Wavelength:          opt.Pipeline.Wavelength,
		SmoothingGroups:     opt.Pipeline.SmoothingGroups,
		SignalThresholdFrac: opt.Pipeline.SignalThresholdFrac,
		MaxSamples:          opt.Pipeline.MaxSamples,
		SampleOffset:        core.DefaultSampleOffset,
		ForwardBackward:     opt.Pipeline.ForwardBackward,
	}
	if !mopt.ForwardBackward {
		t.Fatal("the default configuration no longer averages forward–backward")
	}
	var wsOn, wsOff music.Workspace
	frames := 0
	for _, c := range tb.Clients {
		for _, site := range tb.Sites {
			a := tb.NewArray(site, opt.Capture)
			for _, f := range tb.CaptureClient(c, site, opt.Capture, frameRng) {
				frames++
				if _, err := music.ComputeSpectrumWS(&wsOn, a, f.Streams[:a.N], mopt); err != nil {
					t.Fatal(err)
				}
				if frames <= 18 {
					off := mopt
					off.ForwardBackward = false
					if _, err := music.ComputeSpectrumWS(&wsOff, a, f.Streams[:a.N], off); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if wsOn.EigFallbacks() != 0 {
		t.Errorf("default configuration: %d of %d frames fell back to the Hermitian solver, want 0", wsOn.EigFallbacks(), frames)
	}
	if wsOff.EigFallbacks() != 18 {
		t.Errorf("forward–backward off: %d of 18 frames took the fallback, want all", wsOff.EigFallbacks())
	}
	// The lag-domain MUSIC scan ran on those same frames' noise subspaces.
	// TestLagMUSICGuardFallback shows an adversarial input takes its
	// guard; real ones must not, or the fast form is not the serving path.
	lagBins := float64(frames * music.DefaultBins)
	if share := float64(wsOn.GuardFallbacks()) / lagBins; share > 0.01 {
		t.Errorf("lag guard recomputed %.2f%% of %.0f bins on the testbed's noise subspaces, want at most 1%%", 100*share, lagBins)
	}
	t.Logf("%d default-configuration frames: 0 eigen fallbacks, lag guard on %d of %.0f bins; 18 frames without forward–backward averaging: %d",
		frames, wsOn.GuardFallbacks(), lagBins, wsOff.EigFallbacks())
}

// BenchmarkNoiseSubspace7 times the serving path's eigen split on the
// testbed's own 7 × 7 smoothed matrices: the real form against the
// retained Hermitian entry.
func BenchmarkNoiseSubspace7(b *testing.B) {
	ms := testbedMatrices(b)
	run := func(name string, split func(ws *music.Workspace, r *mat.Matrix) error) {
		b.Run(name, func(b *testing.B) {
			var ws music.Workspace
			one := func(i int) {
				if err := split(&ws, ms[i%len(ms)]); err != nil {
					b.Fatal(err)
				}
			}
			one(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				one(i)
			}
			b.StopTimer()
			if n := testing.AllocsPerRun(20, func() { one(1) }); n != 0 {
				b.Fatalf("%v allocs/op, want 0", n)
			}
		})
	}
	run("real", func(ws *music.Workspace, r *mat.Matrix) error {
		_, err := music.NoiseVectors(ws, r, 0.05, r.Rows/2)
		return err
	})
	run("hermitian", func(ws *music.Workspace, r *mat.Matrix) error {
		_, _, _, err := music.SubspacesWS(ws, r, 0.05, r.Rows/2)
		return err
	})
}
