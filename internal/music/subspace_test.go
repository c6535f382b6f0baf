package music_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/music"
	"repro/internal/testbed"
)

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

// smoothedFB is the matrix the real form stands in for, built by the
// oracles: SpatialSmoothWS(ForwardBackwardWS(R)) of the snapshots.
func smoothedFB(t testing.TB, snaps [][]complex128, ng int) *mat.Matrix {
	t.Helper()
	r, err := music.CorrelationMatrixWS(nil, snaps)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := music.SpatialSmoothWS(nil, music.ForwardBackwardWS(nil, r), ng)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// unitaryQ is the n × n matrix of subspace.go's file comment.
func unitaryQ(n int) *mat.Matrix {
	q := mat.New(n, n)
	h := n / 2
	off := n - h
	s := complex(1/math.Sqrt2, 0)
	for i := 0; i < h; i++ {
		q.Set(i, i, s)
		q.Set(i, off+i, s*1i)
		q.Set(n-1-i, i, s)
		q.Set(n-1-i, off+i, -s*1i)
	}
	if off > h {
		q.Set(h, h, 1)
	}
	return q
}

// testbedFrames returns the row snapshots of every frame the 205-scene
// sweep decomposes, 41 clients × 6 sites × 3 frames, 8 × 10 each, and
// the array of each frame's site.
func testbedFrames(t testing.TB) (out [][][]complex128, arrays []*array.Array) {
	t.Helper()
	opt := testbed.DefaultAccuracyOptions()
	d := testbed.New().Draw(opt)
	var ws music.Workspace
	for _, row := range d.Cut {
		for si, frames := range row {
			a := d.APs[si].Array
			for _, f := range frames {
				snaps, err := music.CalibratedSnapshotsWS(&ws, f.Streams[:a.N], 0, opt.Pipeline.MaxSamples, nil)
				if err != nil {
					t.Fatal(err)
				}
				frame := make([][]complex128, len(snaps))
				for i, x := range snaps {
					frame[i] = slices.Clone(x)
				}
				out, arrays = append(out, frame), append(arrays, a)
			}
		}
	}
	if len(out) != 738 {
		t.Fatalf("%d testbed frames, want 738", len(out))
	}
	return out, arrays
}

// realFormDeviation returns the largest deviation of the real form built
// from the snapshots from Qᴴ·SpatialSmoothWS(ForwardBackwardWS(R))·Q,
// over the upper triangle the solver reads, as a fraction of the
// latter's Frobenius norm.
func realFormDeviation(t *testing.T, ws *music.Workspace, snaps [][]complex128, ng int) float64 {
	t.Helper()
	n := len(snaps[0])
	got, err := music.RealForm(ws, snaps, n, ng)
	if err != nil {
		t.Fatal(err)
	}
	sub := n - ng + 1
	q := unitaryQ(sub)
	want := q.H().Mul(smoothedFB(t, snaps, ng)).Mul(q)
	norm := want.FrobeniusNorm()
	var dev float64
	for i := 0; i < sub; i++ {
		for j := i; j < sub; j++ {
			dev = math.Max(dev, math.Abs(got[i*sub+j]-real(want.At(i, j))))
		}
	}
	return dev / norm
}

// TestRealFormMatchesSmoothedForwardBackward pins the snapshot kernel
// against the chain it replaces: the real form built from the snapshots
// equals Qᴴ·SpatialSmoothWS(ForwardBackwardWS(R))·Q to 1e-14 of its norm
// on random frames of every order 2…16 and smoothing group count, with
// odd and even subarrays and 1 to 2n snapshots, and on the testbed's
// 738 frames.
func TestRealFormMatchesSmoothedForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	var ws music.Workspace
	var worst float64
	for n := 2; n <= 16; n++ {
		for ng := 1; ng < n; ng++ {
			for _, count := range []int{1, 2 * n, 1 + rng.Intn(2*n)} {
				dev := realFormDeviation(t, &ws, randomSnapshots(rng, n, count), ng)
				if dev > 1e-14 {
					t.Fatalf("n=%d ng=%d snapshots=%d: real form deviates %g of its norm, want ≤ 1e-14", n, ng, count, dev)
				}
				worst = math.Max(worst, dev)
			}
		}
	}
	ng := testbed.DefaultAccuracyOptions().Pipeline.SmoothingGroups
	var worstTB float64
	frames, _ := testbedFrames(t)
	for i, snaps := range frames {
		dev := realFormDeviation(t, &ws, snaps, ng)
		if dev > 1e-14 {
			t.Fatalf("testbed frame %d: real form deviates %g of its norm, want ≤ 1e-14", i, dev)
		}
		worstTB = math.Max(worstTB, dev)
	}
	t.Logf("random frames of orders 2…16: within %.2g of the norm; 738 testbed frames: within %.2g", worst, worstTB)
}

// sameBits reports whether two matrices hold the same bits, NaNs
// included.
func sameBits(a, b *mat.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// projector returns E·Eᴴ.
func projector(e *mat.Matrix) *mat.Matrix { return e.Mul(e.H()) }

// compareSplits takes a frame's noise subspace through the real form and
// through the general solver on the smoothed forward–backward matrix,
// and holds the two to the stated bars: eigenvalues within 1e-13 of the
// largest, the same signal count, noise projectors within 1e-12. It
// returns the two deviations.
func compareSplits(t *testing.T, name string, snaps [][]complex128, opt music.Options) (valDev, projDev float64) {
	t.Helper()
	n, ng := len(snaps[0]), opt.SmoothingGroups
	sub := n - ng + 1
	var wsReal, wsRef music.Workspace
	form, err := music.RealForm(&wsReal, snaps, n, ng)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	vals, err := mat.EigSymmetricWS(slices.Clone(form), sub, &mat.EigWorkspace{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rs := smoothedFB(t, snaps, ng)
	ref, err := mat.EigHermitianWS(rs, nil)
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
	got, err := music.NoiseSubspace(&wsReal, snaps, n, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, _, d, err := music.SubspacesWS(&wsRef, rs, opt.SignalThresholdFrac, opt.MaxSignals)
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

// splitOptions is a forward–backward MUSIC configuration with ng groups,
// the §2.3.1 threshold and D capped at maxD (the real form and
// SubspacesWS read the cap the same way).
func splitOptions(ng int, thresh float64, maxD int) music.Options {
	return music.Options{SmoothingGroups: ng, SignalThresholdFrac: thresh, MaxSignals: maxD, ForwardBackward: true}
}

// TestRealSubspaceMatchesHermitian pins the real-arithmetic eigen split,
// taken from a frame's snapshots, against the retained Hermitian solver
// on the smoothed forward–backward matrix of the same snapshots.
// Eigenvectors are not unique (phase, and any basis of a repeated
// eigenvalue's space), so the bars are on what the spectrum depends on:
// eigenvalues, the signal count D, and the noise projector E_N·E_Nᴴ.
func TestRealSubspaceMatchesHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	t.Run("random", func(t *testing.T) {
		var worstVal, worstProj float64
		track := func(v, p float64) {
			worstVal, worstProj = math.Max(worstVal, v), math.Max(worstProj, p)
		}
		for n := 2; n <= 16; n++ {
			for trial := 0; trial < 25; trial++ {
				// Full rank down to a single snapshot, every smoothing
				// order, D by threshold and by the cap.
				count := 1 + rng.Intn(2*n)
				ng := 1 + rng.Intn(n-1)
				sub := n - ng + 1
				name := fmt.Sprintf("n=%d ng=%d snapshots=%d", n, ng, count)
				snaps := randomSnapshots(rng, n, count)
				track(compareSplits(t, name, snaps, splitOptions(ng, 0.05, sub/2)))
				track(compareSplits(t, name+" uncapped", snaps, splitOptions(ng, 1e-6, sub)))
			}
			// Rank one: a single plane wave, whose forward–backward
			// average is itself.
			a := array.NewLinear(geom.Pt(0, 0), 0, n, 0.125)
			sv := a.SteeringVectorRow(0.3+float64(n), 0.125)[:n]
			track(compareSplits(t, fmt.Sprintf("n=%d rank-1", n), [][]complex128{sv}, splitOptions(1, 0.05, n/2)))
			// Repeated noise eigenvalues: two sources over a white floor
			// (a scaled basis vector per element sums to c²·I), the noise
			// eigenvalue has multiplicity ≥ n−4.
			snaps := [][]complex128{sv, a.SteeringVectorRow(2.1, 0.125)[:n]}
			for k := 0; k < n; k++ {
				e := make([]complex128, n)
				e[k] = 0.1
				snaps = append(snaps, e)
			}
			track(compareSplits(t, fmt.Sprintf("n=%d white floor", n), snaps, splitOptions(1, 0.05, n/2)))
		}
		t.Logf("orders 2…16: eigenvalues within %.2g of the largest, noise projectors within %.2g", worstVal, worstProj)
	})
	t.Run("zero", func(t *testing.T) {
		// Zero snapshots have no preferred subspace: any orthonormal
		// block of SubspacesWS's size (D = 1) is an answer.
		var ws, wsRef music.Workspace
		zero := make([][]complex128, 10)
		for i := range zero {
			zero[i] = make([]complex128, 8)
		}
		opt := splitOptions(2, 0.05, 3)
		got, err := music.NoiseSubspace(&ws, zero, 8, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := music.SubspacesWS(&wsRef, smoothedFB(t, zero, 2), 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("zero snapshots: noise subspace is %d×%d, SubspacesWS's %d×%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		gram := got.H().Mul(got)
		for i := 0; i < gram.Rows; i++ {
			for j := 0; j < gram.Cols; j++ {
				want := complex(0, 0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(gram.At(i, j)-want) > 1e-15 {
					t.Fatalf("zero snapshots: noise block not orthonormal at (%d, %d): %v", i, j, gram.At(i, j))
				}
			}
		}
	})
	t.Run("testbed", func(t *testing.T) {
		ng := testbed.DefaultAccuracyOptions().Pipeline.SmoothingGroups
		var worstVal, worstProj float64
		frames, _ := testbedFrames(t)
		for i, snaps := range frames {
			sub := len(snaps[0]) - ng + 1
			v, p := compareSplits(t, fmt.Sprintf("testbed frame %d", i), snaps, splitOptions(ng, 0.05, sub/2))
			worstVal, worstProj = math.Max(worstVal, v), math.Max(worstProj, p)
		}
		t.Logf("738 testbed frames: same D on all, eigenvalues within %.2g of the largest, noise projectors within %.2g", worstVal, worstProj)
	})
}

// TestRealSubspaceGuardFallback: the real form is selected by the
// configuration alone. Forward–backward off, a frame takes correlation
// → smoothing → the Hermitian solver, with that solver's result bit for
// bit and its errors; forward–backward on, a frame holding a non-finite
// or overflowing sample is refused with an error instead of scanned,
// and malformed frames are refused on both paths. On the testbed's
// frames the lag-domain scan keeps its guard quiet.
func TestRealSubspaceGuardFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	const n, ng = 8, 2
	on := splitOptions(ng, 0.05, 0)
	off := on
	off.ForwardBackward = false

	// hermitian is the retained route: correlation, smoothing,
	// SubspacesWS's noise block.
	hermitian := func(snaps [][]complex128) (*mat.Matrix, error) {
		r, err := music.CorrelationMatrixWS(nil, snaps)
		if err != nil {
			return nil, err
		}
		rs, err := music.SpatialSmoothWS(nil, r, ng)
		if err != nil {
			return nil, err
		}
		noise, _, _, err := music.SubspacesWS(nil, rs, 0.05, rs.Rows/2)
		return noise, err
	}
	retained := func(name string, snaps [][]complex128) {
		t.Helper()
		var ws music.Workspace
		got, err := music.NoiseSubspace(&ws, snaps, n, off)
		want, wantErr := hermitian(snaps)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, the Hermitian solver's %v", name, err, wantErr)
		}
		if err == nil && !sameBits(got, want) {
			t.Fatalf("%s: forward–backward off is not SubspacesWS's noise block", name)
		}
	}
	for trial := 0; trial < 20; trial++ {
		retained(fmt.Sprintf("random frame %d", trial), randomSnapshots(rng, n, 10))
	}
	frames, arrays := testbedFrames(t)
	for i, snaps := range frames[:18] {
		retained(fmt.Sprintf("testbed frame %d", i), snaps)
	}

	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(s [][]complex128)
	}{
		{"NaN sample", func(s [][]complex128) { s[3][2] = complex(math.NaN(), 0) }},
		{"NaN imaginary part", func(s [][]complex128) { s[0][7] = complex(1, math.NaN()) }},
		{"+Inf sample", func(s [][]complex128) { s[9][4] = complex(inf, 0) }},
		{"−Inf imaginary part", func(s [][]complex128) { s[5][0] = complex(0, -inf) }},
		{"Inf − Inf pair", func(s [][]complex128) { s[2][1], s[2][6] = complex(inf, 0), complex(inf, 0) }},
		{"overflowing square", func(s [][]complex128) { s[1][1] = complex(1e200, 0) }},
	} {
		snaps := randomSnapshots(rng, n, 10)
		c.set(snaps)
		var ws music.Workspace
		if noise, err := music.NoiseSubspace(&ws, snaps, n, on); err == nil {
			t.Errorf("%s: forward–backward on returned a %d×%d noise block, want an error", c.name, noise.Rows, noise.Cols)
		}
		retained(c.name+", forward–backward off", snaps)
	}

	for _, opt := range []music.Options{on, off} {
		var ws music.Workspace
		snaps := randomSnapshots(rng, n, 10)
		if _, err := music.NoiseSubspace(&ws, nil, n, opt); err == nil {
			t.Errorf("forward–backward %v: no snapshots, no error", opt.ForwardBackward)
		}
		if _, err := music.NoiseSubspace(&ws, snaps, n+1, opt); err == nil {
			t.Errorf("forward–backward %v: snapshots shorter than the row, no error", opt.ForwardBackward)
		}
		bad := opt
		bad.SmoothingGroups = n
		if _, err := music.NoiseSubspace(&ws, snaps, n, bad); err == nil {
			t.Errorf("forward–backward %v: %d smoothing groups of %d antennas, no error", opt.ForwardBackward, n, n)
		}
	}

	// The lag-domain MUSIC scan runs on the default configuration's
	// noise subspaces of all 738 frames. TestLagMUSICGuardFallback shows
	// an adversarial input takes its guard; real ones must not, or the
	// fast form is not the serving path.
	opt := testbed.DefaultAccuracyOptions()
	mopt := music.Options{
		Wavelength:      opt.Pipeline.Wavelength,
		SmoothingGroups: opt.Pipeline.SmoothingGroups,
		ForwardBackward: opt.Pipeline.ForwardBackward,
	}
	if !mopt.ForwardBackward {
		t.Fatal("the default configuration no longer averages forward–backward")
	}
	var ws music.Workspace
	for i, snaps := range frames {
		if _, err := music.MUSICEstimator.Spectrum(&ws, arrays[i], snaps, mopt); err != nil {
			t.Fatal(err)
		}
	}
	lagBins := float64(len(frames) * music.DefaultBins)
	if share := float64(ws.GuardFallbacks()) / lagBins; share > 0.01 {
		t.Errorf("lag guard recomputed %.2f%% of %.0f bins on the testbed's noise subspaces, want at most 1%%", 100*share, lagBins)
	}
	t.Logf("%d default-configuration frames: lag guard on %d of %.0f bins", len(frames), ws.GuardFallbacks(), lagBins)
}

// BenchmarkNoiseSubspace7 times the serving path's eigen split on the
// testbed's own frames, from the 8 × 10 row snapshots to the 7-order
// noise block: the real form against correlation → forward–backward →
// smoothing → the retained Hermitian entry.
func BenchmarkNoiseSubspace7(b *testing.B) {
	frames, _ := testbedFrames(b)
	opt := splitOptions(2, 0.05, 0)
	run := func(name string, split func(ws *music.Workspace, snaps [][]complex128) error) {
		b.Run(name, func(b *testing.B) {
			var ws music.Workspace
			one := func(i int) {
				if err := split(&ws, frames[i%len(frames)]); err != nil {
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
	run("real", func(ws *music.Workspace, snaps [][]complex128) error {
		_, err := music.NoiseSubspace(ws, snaps, len(snaps[0]), opt)
		return err
	})
	run("hermitian", func(ws *music.Workspace, snaps [][]complex128) error {
		r, err := music.CorrelationMatrixWS(ws, snaps)
		if err != nil {
			return err
		}
		rs, err := music.SpatialSmoothWS(ws, music.ForwardBackwardWS(ws, r), 2)
		if err != nil {
			return err
		}
		_, _, _, err = music.SubspacesWS(ws, rs, 0.05, rs.Rows/2)
		return err
	})
}
