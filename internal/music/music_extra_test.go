package music

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/mat"
)

func TestSnapshotsAtOffset(t *testing.T) {
	streams := [][]complex128{{1, 2, 3, 4}, {5, 6, 7, 8}}
	snaps := SnapshotsAt(streams, 1, 2)
	if len(snaps) != 2 || snaps[0][0] != 2 || snaps[0][1] != 6 || snaps[1][0] != 3 {
		t.Errorf("SnapshotsAt = %v", snaps)
	}
	// Offset beyond the stream clamps to 0.
	snaps = SnapshotsAt(streams, 99, 2)
	if len(snaps) != 2 || snaps[0][0] != 1 {
		t.Errorf("clamped SnapshotsAt = %v", snaps)
	}
	// Negative offset clamps to 0.
	if got := SnapshotsAt(streams, -3, 0); len(got) != 4 {
		t.Errorf("negative offset snapshots = %d", len(got))
	}
}

// TestCalibratedCorrelationRefusesShortStreams: where SnapshotsAt is
// lenient (above), the serving path's snapshots hold the window as a
// contract — every stream must reach offset+maxSamples, or the frame is
// refused with ErrShortCapture instead of being read from sample 0 or
// averaged over fewer snapshots.
func TestCalibratedCorrelationRefusesShortStreams(t *testing.T) {
	streams := [][]complex128{{1, 2, 3, 4}, {5, 6, 7, 8}}
	for _, c := range []struct {
		name               string
		streams            [][]complex128
		offset, maxSamples int
		refused            bool
	}{
		{"window ends at the last sample", streams, 2, 2, false},
		{"all samples from an offset", streams, 3, 0, false},
		{"one sample short", streams, 2, 3, true},
		{"offset past the end", streams, 99, 2, true},
		{"offset at the end, all samples", streams, 4, 0, true},
		{"negative offset", streams, -3, 2, true},
		{"one ragged stream", [][]complex128{{1, 2, 3, 4}, {5, 6, 7}}, 2, 2, true},
	} {
		snaps, err := CalibratedSnapshotsWS(nil, c.streams, c.offset, c.maxSamples, nil)
		if c.refused != errors.Is(err, ErrShortCapture) || (err == nil) != (snaps != nil) {
			t.Errorf("%s: snapshots %v, err %v; want refused=%v", c.name, snaps != nil, err, c.refused)
		}
	}
	// What it accepts is what SnapshotsAt reads.
	got, err := CalibratedSnapshotsWS(nil, streams, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := SnapshotsAt(streams, 2, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshots over [2, 4) = %v, want %v", got, want)
	}
}

func TestForwardBackwardProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Build a correlation matrix from random snapshots.
	snaps := make([][]complex128, 30)
	for i := range snaps {
		snaps[i] = randomSig(6, rng)
	}
	r, _ := CorrelationMatrixWS(nil, snaps)
	fb := ForwardBackwardWS(nil, r)
	if !fb.IsHermitian(1e-12) {
		t.Error("FB matrix must stay Hermitian")
	}
	// FB is idempotent up to the persymmetric projection: applying it
	// twice equals applying it once.
	if !ForwardBackwardWS(nil, fb).Equalish(fb, 1e-12) {
		t.Error("FB not idempotent")
	}
	// Trace is preserved.
	var tr, trFB float64
	for i := 0; i < 6; i++ {
		tr += real(r.At(i, i))
		trFB += real(fb.At(i, i))
	}
	if math.Abs(tr-trFB) > 1e-9 {
		t.Errorf("trace changed: %v vs %v", tr, trFB)
	}
}

func TestForwardBackwardDecorrelatesCoherentPair(t *testing.T) {
	// Two fully coherent sources: plain R has signal rank 1; FB
	// averaging should raise the effective signal rank toward 2,
	// visible in the second-largest eigenvalue.
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	v1 := a.SteeringVector(geom.Rad(50), lambda)
	v2 := a.SteeringVector(geom.Rad(120), lambda)
	sum := make([]complex128, 8)
	for i := range sum {
		sum[i] = v1[i] + 0.9i*v2[i]
	}
	r := mat.New(8, 8)
	r.OuterAccumulate(sum, 1)
	ePlain, err := mat.EigHermitianWS(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	eFB, err := mat.EigHermitianWS(ForwardBackwardWS(nil, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if eFB.Values[6] <= ePlain.Values[6]+1e-9 {
		t.Errorf("FB second eigenvalue %v not above plain %v", eFB.Values[6], ePlain.Values[6])
	}
}

func TestMUSICQuickFreeSpaceProperty(t *testing.T) {
	// Property: for a random off-axis bearing and random noise seed,
	// the MUSIC peak lands within 3° of the true bearing or its
	// mirror.
	f := func(seed int64, bearingIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Off-axis bearings only: 20°..160°.
		th := geom.Rad(20 + float64(bearingIdx%141))
		a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
		streams := synth(a, []float64{th}, []complex128{1}, 30, false, 0.02, rng)
		spec, err := ComputeSpectrumWS(nil, a, streams, Options{
			Wavelength: lambda, SmoothingGroups: 2, ForwardBackward: true,
		})
		if err != nil {
			return false
		}
		_, bin := spec.Max()
		got := spec.Theta(bin)
		return geom.AngleDiff(got, th) <= geom.Rad(3) ||
			geom.AngleDiff(got, 2*math.Pi-th) <= geom.Rad(3)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSpectrumNormalizeIdempotentProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 3 {
			return true
		}
		s := NewSpectrum(len(vals))
		for i, v := range vals {
			s.P[i] = math.Abs(v)
		}
		once := s.Clone().Normalize()
		twice := once.Clone().Normalize()
		return reflect.DeepEqual(once.P, twice.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubspacesMaxDCap(t *testing.T) {
	// A matrix with 4 strong eigenvalues but maxD=2 must report D=2.
	r := mat.New(6, 6)
	a := array.NewLinear(geom.Pt(0, 0), 0, 6, lambda)
	for _, th := range []float64{0.5, 1.1, 1.9, 2.6} {
		r.OuterAccumulate(a.SteeringVector(th, lambda), 1)
	}
	for i := 0; i < 6; i++ {
		r.Set(i, i, r.At(i, i)+0.001)
	}
	noise, _, d, err := SubspacesWS(nil, r, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 || noise.Cols != 4 {
		t.Errorf("capped D = %d (noise %d), want 2 (4)", d, noise.Cols)
	}
}

func TestBartlettNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := array.NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	snaps := make([][]complex128, 20)
	for i := range snaps {
		snaps[i] = randomSig(4, rng)
	}
	r, _ := CorrelationMatrixWS(nil, snaps)
	b := Bartlett(r, func(th float64) []complex128 { return a.SteeringVector(th, lambda) }, 180)
	for i, v := range b.P {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("Bartlett bin %d = %v", i, v)
		}
	}
}

func TestGeometryWeightingArbitraryOrient(t *testing.T) {
	// The axis of a rotated array must be the de-weighted direction.
	orient := geom.Rad(40)
	s := NewSpectrum(360)
	for i := range s.P {
		s.P[i] = 0.1
	}
	s.P[40] = 1 // on the rotated axis
	var neutral float64
	for _, v := range s.P {
		neutral += v
	}
	neutral /= 360
	s.ApplyGeometryWeighting(orient)
	if math.Abs(s.P[40]-neutral) > 1e-9 {
		t.Errorf("rotated axis bin = %v, want neutral %v", s.P[40], neutral)
	}
	if s.P[130] != 0.1 { // broadside of the rotated array
		t.Errorf("rotated broadside modified: %v", s.P[130])
	}
}

func TestSymmetryRemovalLeavesAxisBins(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	streams := synth(a, []float64{geom.Rad(70)}, []complex128{1}, 50, false, 0.01, rng)
	spec, err := ComputeSpectrumWS(nil, a, streams[:8], Options{Wavelength: lambda, SmoothingGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Put sentinel values near the axis; they must be untouched.
	spec.P[5] = 0.42
	spec.P[355] = 0.42
	snaps := SnapshotsAt(streams, 0, 0)
	rFull, _ := CorrelationMatrixWS(nil, snaps)
	SymmetryRemoval(spec, a, rFull, lambda)
	if spec.P[5] != 0.42 || spec.P[355] != 0.42 {
		t.Errorf("axis bins modified: %v %v", spec.P[5], spec.P[355])
	}
}

func TestComputeSpectrumWithFBAndOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	want := geom.Rad(100)
	streams := synth(a, []float64{want}, []complex128{1}, 200, false, 0.02, rng)
	spec, err := ComputeSpectrumWS(nil, a, streams, Options{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      10,
		SampleOffset:    100,
		ForwardBackward: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, bin := spec.Max()
	got := spec.Theta(bin)
	if geom.AngleDiff(got, want) > geom.Rad(2) && geom.AngleDiff(got, 2*math.Pi-want) > geom.Rad(2) {
		t.Errorf("peak %.1f°, want %.1f°", geom.Deg(got), geom.Deg(want))
	}
}

func TestMUSICWithCmplxImport(t *testing.T) {
	// Guard: steering vectors are unit-modulus.
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	for _, v := range a.SteeringVector(1.234, lambda) {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("steering element modulus %v", cmplx.Abs(v))
		}
	}
}
