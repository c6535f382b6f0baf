package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/mat"
)

const lambda = 0.1225

// synth produces per-antenna streams for sources at the given bearings
// with the given complex amplitudes; each source transmits a random
// unit-power sequence (independent across sources unless coherent is
// true, in which case all sources share one sequence — the multipath
// condition).
func synth(a *array.Array, bearings []float64, amps []complex128, ns int, coherent bool, noiseSD float64, rng *rand.Rand) [][]complex128 {
	n := a.NumElements()
	streams := make([][]complex128, n)
	for k := range streams {
		streams[k] = make([]complex128, ns)
	}
	var shared []complex128
	if coherent {
		shared = randomSig(ns, rng)
	}
	for si, th := range bearings {
		sig := shared
		if !coherent {
			sig = randomSig(ns, rng)
		}
		steer := a.SteeringVector(th, lambda)
		for k := 0; k < n; k++ {
			g := amps[si] * steer[k]
			for t := 0; t < ns; t++ {
				streams[k][t] += g * sig[t]
			}
		}
	}
	if noiseSD > 0 {
		for k := 0; k < n; k++ {
			for t := 0; t < ns; t++ {
				streams[k][t] += complex(rng.NormFloat64()*noiseSD, rng.NormFloat64()*noiseSD)
			}
		}
	}
	return streams
}

func randomSig(ns int, rng *rand.Rand) []complex128 {
	s := make([]complex128, ns)
	for i := range s {
		s[i] = cmplx.Rect(1, rng.Float64()*2*math.Pi)
	}
	return s
}

func TestSpectrumBasics(t *testing.T) {
	s := NewSpectrum(360)
	if s.Bins() != 360 {
		t.Fatal("bins")
	}
	s.P[90] = 2
	if v, i := s.Max(); v != 2 || i != 90 {
		t.Errorf("Max = %v,%v", v, i)
	}
	s.Normalize()
	if s.P[90] != 1 {
		t.Error("Normalize failed")
	}
	if got := s.Theta(90); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("Theta(90) = %v", got)
	}
	if got := s.BinOf(math.Pi / 2); got != 90 {
		t.Errorf("BinOf = %d", got)
	}
	if got := s.BinOf(-math.Pi / 2); got != 270 {
		t.Errorf("BinOf negative = %d", got)
	}
}

func TestSpectrumAtInterpolates(t *testing.T) {
	s := NewSpectrum(360)
	s.P[10] = 1
	s.P[11] = 3
	mid := s.At(geom.Rad(10.5))
	if math.Abs(mid-2) > 1e-9 {
		t.Errorf("At interpolation = %v, want 2", mid)
	}
	// Wraparound interpolation between bin 359 and 0.
	s2 := NewSpectrum(360)
	s2.P[359] = 2
	s2.P[0] = 4
	if got := s2.At(geom.Rad(359.5)); math.Abs(got-3) > 1e-9 {
		t.Errorf("wraparound At = %v, want 3", got)
	}
}

func TestPeaksFindsLocalMaxima(t *testing.T) {
	s := NewSpectrum(360)
	gauss := func(center int, w float64, amp float64) {
		for i := range s.P {
			d := float64(((i - center + 540) % 360) - 180)
			s.P[i] += amp * math.Exp(-d*d/(2*w*w))
		}
	}
	gauss(45, 4, 1.0)
	gauss(200, 4, 0.6)
	peaks := s.Peaks(0.1)
	if len(peaks) != 2 {
		t.Fatalf("peaks = %d, want 2", len(peaks))
	}
	if peaks[0].Bin != 45 || peaks[1].Bin != 200 {
		t.Errorf("peak bins = %d,%d", peaks[0].Bin, peaks[1].Bin)
	}
	if peaks[0].Power < peaks[1].Power {
		t.Error("peaks not sorted by power")
	}
	// Raising the threshold drops the weaker peak.
	if got := s.Peaks(0.9); len(got) != 1 {
		t.Errorf("thresholded peaks = %d", len(got))
	}
}

func TestPeaksDegenerate(t *testing.T) {
	if NewSpectrum(2).Peaks(0.1) != nil {
		t.Error("tiny spectrum should have no peaks")
	}
	if NewSpectrum(10).Peaks(0.1) != nil {
		t.Error("zero spectrum should have no peaks")
	}
}

func TestCorrelationMatrixProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	snaps := make([][]complex128, 50)
	for i := range snaps {
		snaps[i] = randomSig(4, rng)
	}
	r, err := CorrelationMatrixWS(nil, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsHermitian(1e-12) {
		t.Error("correlation matrix must be Hermitian")
	}
	// Diagonal = mean power = 1 for unit-modulus signals.
	for i := 0; i < 4; i++ {
		if math.Abs(real(r.At(i, i))-1) > 1e-9 {
			t.Errorf("diagonal %d = %v", i, r.At(i, i))
		}
	}
	if _, err := CorrelationMatrixWS(nil, nil); err == nil {
		t.Error("empty snapshots should error")
	}
	if _, err := CorrelationMatrixWS(nil, [][]complex128{{1}, {1, 2}}); err == nil {
		t.Error("ragged snapshots should error")
	}
}

func TestSnapshotsFromStreams(t *testing.T) {
	streams := [][]complex128{{1, 2, 3}, {4, 5, 6}}
	snaps := SnapshotsAt(streams, 0, 2)
	if len(snaps) != 2 || snaps[0][0] != 1 || snaps[0][1] != 4 || snaps[1][1] != 5 {
		t.Errorf("snapshots = %v", snaps)
	}
	if got := SnapshotsAt(streams, 0, 0); len(got) != 3 {
		t.Errorf("maxSamples=0 should keep all: %d", len(got))
	}
	if SnapshotsAt(nil, 0, 5) != nil {
		t.Error("nil streams")
	}
}

func TestSpatialSmoothShapes(t *testing.T) {
	r := mat.Identity(8)
	s, err := SpatialSmoothWS(nil, r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 6 || s.Cols != 6 {
		t.Errorf("smoothed shape %d×%d, want 6×6", s.Rows, s.Cols)
	}
	if _, err := SpatialSmoothWS(nil, r, 0); err == nil {
		t.Error("ng=0 should error")
	}
	if _, err := SpatialSmoothWS(nil, r, 8); err == nil {
		t.Error("ng=M should error")
	}
	one, err := SpatialSmoothWS(nil, r, 1)
	if err != nil || !one.Equalish(r, 0) {
		t.Error("ng=1 should return an equal copy")
	}
}

func TestSubspacesDimensions(t *testing.T) {
	// Rank-one correlation: one signal, M-1 noise dimensions.
	a := array.NewLinear(geom.Pt(0, 0), 0, 6, lambda)
	v := a.SteeringVector(1.0, lambda)
	r := mat.New(6, 6)
	r.OuterAccumulate(v, 1)
	// Add a noise floor so eigenvalues are not exactly zero.
	for i := 0; i < 6; i++ {
		r.Set(i, i, r.At(i, i)+0.01)
	}
	noise, signal, d, err := SubspacesWS(nil, r, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("D = %d, want 1", d)
	}
	if noise.Cols != 5 || signal.Cols != 1 || noise.Rows != 6 {
		t.Errorf("subspace shapes: noise %d×%d signal %d×%d", noise.Rows, noise.Cols, signal.Rows, signal.Cols)
	}
	// The signal eigenvector must align with the steering vector.
	sv := signal.Col(0)
	corr := cmplx.Abs(mat.VecDot(sv, v)) / (mat.VecNorm(sv) * mat.VecNorm(v))
	if corr < 0.999 {
		t.Errorf("signal eigenvector alignment = %v", corr)
	}
}

func TestSubspacesAlwaysLeavesNoise(t *testing.T) {
	r := mat.Identity(4) // all eigenvalues equal: naive D would be 4
	noise, _, d, err := SubspacesWS(nil, r, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 || noise.Cols != 1 {
		t.Errorf("D = %d, noise cols = %d; must keep one noise vector", d, noise.Cols)
	}
}

func TestMUSICSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	want := geom.Rad(72)
	streams := synth(a, []float64{want}, []complex128{1}, 50, false, 0.01, rng)
	spec, err := ComputeSpectrumWS(nil, a, streams, Options{Wavelength: lambda, SmoothingGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, bin := spec.Max()
	got := spec.Theta(bin)
	// The mirror bearing is equally valid for a linear array.
	if geom.AngleDiff(got, want) > geom.Rad(2) && geom.AngleDiff(got, 2*math.Pi-want) > geom.Rad(2) {
		t.Errorf("peak at %.1f°, want %.1f° (or mirror)", geom.Deg(got), geom.Deg(want))
	}
}

func TestMUSICTwoIncoherentSources(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	b1, b2 := geom.Rad(60), geom.Rad(120)
	streams := synth(a, []float64{b1, b2}, []complex128{1, 0.8}, 100, false, 0.01, rng)
	spec, err := ComputeSpectrumWS(nil, a, streams, Options{Wavelength: lambda, SmoothingGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hasPeakNear(spec, b1, 3) || !hasPeakNear(spec, b2, 3) {
		t.Errorf("missing peaks near %v° and %v°", geom.Deg(b1), geom.Deg(b2))
	}
}

// hasPeakNear reports whether the spectrum has a local maximum within
// tolDeg of bearing th (or its array mirror).
func hasPeakNear(s *Spectrum, th float64, tolDeg float64) bool {
	for _, p := range s.Peaks(0.05) {
		if geom.AngleDiff(p.Theta, th) <= geom.Rad(tolDeg) ||
			geom.AngleDiff(p.Theta, 2*math.Pi-th) <= geom.Rad(tolDeg) {
			return true
		}
	}
	return false
}

func TestSmoothingResolvesCoherentSources(t *testing.T) {
	// Two phase-locked (multipath) arrivals: plain MUSIC cannot
	// separate them, spatially smoothed MUSIC can. This is the §2.3.2
	// microbenchmark in miniature.
	rng := rand.New(rand.NewSource(4))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	b1, b2 := geom.Rad(50), geom.Rad(110)
	amps := []complex128{1, 0.9 * cmplx.Rect(1, 1.1)}
	streams := synth(a, []float64{b1, b2}, amps, 100, true, 0.005, rng)

	smoothed, err := ComputeSpectrumWS(nil, a, streams, Options{Wavelength: lambda, SmoothingGroups: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !hasPeakNear(smoothed, b1, 6) || !hasPeakNear(smoothed, b2, 6) {
		t.Errorf("smoothed spectrum misses a coherent source: peaks %v", smoothed.Peaks(0.05))
	}
}

func TestComputeSpectrumErrors(t *testing.T) {
	a := array.NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	if _, err := ComputeSpectrumWS(nil, a, nil, Options{Wavelength: lambda}); err == nil {
		t.Error("nil streams should error")
	}
	five := make([][]complex128, 5)
	for i := range five {
		five[i] = []complex128{1}
	}
	if _, err := ComputeSpectrumWS(nil, a, five, Options{Wavelength: lambda}); err == nil {
		t.Error("more streams than row antennas should error")
	}
	if _, err := ComputeSpectrumWS(nil, a, five[:3], Options{Wavelength: lambda}); err == nil {
		t.Error("fewer streams than row antennas should error")
	}
}

func TestComputeSpectrumWithCalibration(t *testing.T) {
	// Uncalibrated offsets must corrupt the spectrum; applying the
	// calibration in Options must restore the true peak.
	rng := rand.New(rand.NewSource(5))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.RandomizePhaseOffsets(rng)
	want := geom.Rad(75)

	// Simulate hardware baking offsets into the streams.
	streams := synth(a, []float64{want}, []complex128{1}, 50, false, 0.01, rng)
	for k := range streams {
		rot := cmplx.Exp(complex(0, a.PhaseOffsets[k]))
		for t := range streams[k] {
			streams[k][t] *= rot
		}
	}

	cal, err := ComputeSpectrumWS(nil, a, streams, Options{
		Wavelength:         lambda,
		SmoothingGroups:    1,
		CalibrationOffsets: a.PhaseOffsets,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, bin := cal.Max()
	got := cal.Theta(bin)
	if geom.AngleDiff(got, want) > geom.Rad(2) && geom.AngleDiff(got, 2*math.Pi-want) > geom.Rad(2) {
		t.Errorf("calibrated peak at %.1f°, want %.1f°", geom.Deg(got), geom.Deg(want))
	}

	uncal, err := ComputeSpectrumWS(nil, a, streams, Options{Wavelength: lambda, SmoothingGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, ubin := uncal.Max()
	ugot := uncal.Theta(ubin)
	if geom.AngleDiff(ugot, want) < geom.Rad(5) || geom.AngleDiff(ugot, 2*math.Pi-want) < geom.Rad(5) {
		t.Log("uncalibrated spectrum coincidentally near truth (possible but unlikely)")
	}
}

func TestGeometryWeighting(t *testing.T) {
	// A spectrum with a sharp on-axis peak over a low floor.
	s := NewSpectrum(360)
	for i := range s.P {
		s.P[i] = 0.1
	}
	s.P[0] = 1 // on-axis peak: the least trustworthy kind
	var neutral float64
	for _, v := range s.P {
		neutral += v
	}
	neutral /= 360
	s.ApplyGeometryWeighting(0)
	// The on-axis peak is pulled to the neutral level (weight sin(0)=0).
	if math.Abs(s.P[0]-neutral) > 1e-9 {
		t.Errorf("axis bin = %v, want neutral %v", s.P[0], neutral)
	}
	// Broadside bins untouched.
	if s.P[90] != 0.1 || s.P[270] != 0.1 {
		t.Errorf("broadside bins modified: %v %v", s.P[90], s.P[270])
	}
	// 10° off axis: blended with weight sin(10°).
	w := math.Sin(geom.Rad(10))
	want := w*0.1 + (1-w)*neutral
	if math.Abs(s.P[10]-want) > 1e-9 {
		t.Errorf("bin 10 = %v, want %v", s.P[10], want)
	}
	// 20° off axis: inside the unity window, untouched.
	if s.P[20] != 0.1 {
		t.Errorf("bin 20 = %v", s.P[20])
	}
}

func TestSymmetryRemovalPicksTrueSide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	want := geom.Rad(70) // above the axis
	streams := synth(a, []float64{want}, []complex128{1}, 80, false, 0.01, rng)

	// Row-only spectrum has the mirror ambiguity.
	spec, err := ComputeSpectrumWS(nil, a, streams[:8], Options{Wavelength: lambda, SmoothingGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hasPeakNear(spec, want, 3) {
		t.Fatal("row spectrum lost the true peak")
	}

	snaps := SnapshotsAt(streams, 0, 0)
	rFull, err := CorrelationMatrixWS(nil, snaps)
	if err != nil {
		t.Fatal(err)
	}
	mirrorBefore := spec.At(2*math.Pi - want)
	SymmetryRemoval(spec, a, rFull, lambda)

	// The mirror side (bearing 360−70 = 290°) must be strongly
	// attenuated relative to its pre-removal value.
	if got := spec.At(2*math.Pi - want); got > 0.1*mirrorBefore {
		t.Errorf("mirror side survives symmetry removal: %v (was %v)", got, mirrorBefore)
	}
	if spec.At(want) < 0.5 {
		t.Errorf("true side suppressed: %v", spec.At(want))
	}
}

func TestSymmetryRemovalOtherSide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	want := geom.Rad(290) // below the axis
	streams := synth(a, []float64{want}, []complex128{1}, 80, false, 0.01, rng)
	spec, err := ComputeSpectrumWS(nil, a, streams[:8], Options{Wavelength: lambda, SmoothingGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	snaps := SnapshotsAt(streams, 0, 0)
	rFull, _ := CorrelationMatrixWS(nil, snaps)
	mirrorBefore := spec.At(2*math.Pi - want)
	SymmetryRemoval(spec, a, rFull, lambda)
	if got := spec.At(2*math.Pi - want); got > 0.1*mirrorBefore {
		t.Errorf("mirror side survives: %v (was %v)", got, mirrorBefore)
	}
	if spec.At(want) < 0.5 {
		t.Errorf("true side suppressed: %v", spec.At(want))
	}
}

func TestBartlettPeaksAtSource(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	want := geom.Rad(100)
	streams := synth(a, []float64{want}, []complex128{1}, 50, false, 0.01, rng)
	snaps := SnapshotsAt(streams, 0, 0)
	r, _ := CorrelationMatrixWS(nil, snaps)
	b := Bartlett(r, func(th float64) []complex128 { return a.SteeringVector(th, lambda) }, 360)
	_, bin := b.Max()
	got := b.Theta(bin)
	if geom.AngleDiff(got, want) > geom.Rad(3) && geom.AngleDiff(got, 2*math.Pi-want) > geom.Rad(3) {
		t.Errorf("Bartlett peak at %.1f°, want %.1f°", geom.Deg(got), geom.Deg(want))
	}
}

func BenchmarkComputeSpectrum8Antennas(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := synth(a, []float64{1.0, 2.2}, []complex128{1, 0.7}, 10, true, 0.01, rng)
	opt := Options{Wavelength: lambda, SmoothingGroups: 2, MaxSamples: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSpectrumWS(nil, a, streams, opt); err != nil {
			b.Fatal(err)
		}
	}
}
