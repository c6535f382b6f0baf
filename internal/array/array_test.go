package array

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

const lambda = 0.1225

func TestLinearElementPositions(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	if a.Spacing != lambda/2 {
		t.Errorf("spacing = %v", a.Spacing)
	}
	for k := 0; k < 8; k++ {
		p := a.ElementPos(k)
		if math.Abs(p.X-float64(k)*lambda/2) > 1e-12 || math.Abs(p.Y) > 1e-12 {
			t.Errorf("element %d at %v", k, p)
		}
	}
}

func TestLinearOrientRotates(t *testing.T) {
	a := NewLinear(geom.Pt(1, 1), math.Pi/2, 4, lambda)
	p := a.ElementPos(3)
	if math.Abs(p.X-1) > 1e-12 || math.Abs(p.Y-(1+3*lambda/2)) > 1e-12 {
		t.Errorf("rotated element at %v", p)
	}
}

func TestNinthAntennaOffRow(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	if a.NumElements() != 9 {
		t.Fatalf("NumElements = %d", a.NumElements())
	}
	p := a.ElementPos(8)
	if math.Abs(p.Y) < 1e-9 {
		t.Error("ninth antenna lies on the array axis; it must be off-row")
	}
}

func TestCircularElements(t *testing.T) {
	a := NewCircular(geom.Pt(0, 0), 0.1, 8)
	for k := 0; k < 8; k++ {
		p := a.ElementPos(k)
		if math.Abs(p.Dist(geom.Pt(0, 0))-0.1) > 1e-12 {
			t.Errorf("element %d not on circle: %v", k, p)
		}
	}
}

func TestSteeringVectorBroadside(t *testing.T) {
	// A wave from broadside (perpendicular to the row) reaches all
	// elements simultaneously: the steering vector is all ones.
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	v := a.SteeringVector(math.Pi/2, lambda)
	for k, x := range v {
		if cmplx.Abs(x-1) > 1e-12 {
			t.Errorf("broadside element %d = %v", k, x)
		}
	}
}

func TestSteeringVectorEndfire(t *testing.T) {
	// A wave from endfire (along the row, θ=0) advances by
	// 2π·(λ/2)/λ = π per element.
	a := NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	v := a.SteeringVector(0, lambda)
	for k, x := range v {
		want := cmplx.Exp(complex(0, math.Pi*float64(k)))
		if cmplx.Abs(x-want) > 1e-12 {
			t.Errorf("endfire element %d = %v, want %v", k, x, want)
		}
	}
}

func TestSteeringVectorMirrorSymmetry(t *testing.T) {
	// A linear array cannot distinguish θ from −θ (mirror across its
	// axis): steering vectors must be identical.
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	for _, th := range []float64{0.3, 1.1, 2.0} {
		v1 := a.SteeringVector(th, lambda)
		v2 := a.SteeringVector(2*math.Pi-th, lambda)
		for k := range v1 {
			if cmplx.Abs(v1[k]-v2[k]) > 1e-12 {
				t.Fatalf("θ=%v: mirror steering differs at element %d", th, k)
			}
		}
	}
}

func TestNinthAntennaBreaksMirrorSymmetry(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	v1 := a.SteeringVector(0.7, lambda)
	v2 := a.SteeringVector(2*math.Pi-0.7, lambda)
	if cmplx.Abs(v1[8]-v2[8]) < 1e-6 {
		t.Error("ninth antenna fails to distinguish front from back")
	}
}

func TestSteeringVectorRowExcludesNinth(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	if got := len(a.SteeringVectorRow(1, lambda)); got != 8 {
		t.Errorf("row steering length = %d", got)
	}
	if got := len(a.SteeringVector(1, lambda)); got != 9 {
		t.Errorf("full steering length = %d", got)
	}
}

func TestApplyAndCorrectOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	a.RandomizePhaseOffsets(rng)
	if a.PhaseOffsets[0] != 0 {
		t.Error("element 0 must stay the zero-phase reference")
	}
	x := []complex128{1, 1, 1, 1}
	a.ApplyOffsets(x)
	// With offsets applied the vector is no longer all-ones.
	var changed bool
	for _, v := range x[1:] {
		if cmplx.Abs(v-1) > 1e-9 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("offsets had no effect")
	}
	CorrectOffsets(x, a.PhaseOffsets)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("element %d not restored: %v", k, v)
		}
	}
}

func TestCalibrationCancelsCableImbalance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.RandomizePhaseOffsets(rng)
	tone := &CalibrationTone{
		ExternalPhases: NewImperfectCables(8, 0.3, rng), // generous imbalance
	}
	measured, err := Calibrate(a, tone)
	if err != nil {
		t.Fatal(err)
	}
	if e := OffsetError(a, measured); e > 1e-9 {
		t.Errorf("noise-free calibration residual = %v rad", e)
	}
}

func TestCalibrationSingleRunIsBiased(t *testing.T) {
	// Without the swap, cable imbalance leaks straight into the offset
	// estimate — the reason §3 runs the procedure twice.
	rng := rand.New(rand.NewSource(22))
	a := NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	a.RandomizePhaseOffsets(rng)
	tone := &CalibrationTone{ExternalPhases: NewImperfectCables(4, 0.3, rng)}
	identity := []int{0, 1, 2, 3}
	obs, err := tone.Measure(a, identity)
	if err != nil {
		t.Fatal(err)
	}
	if e := OffsetError(a, obs); e < 0.01 {
		t.Errorf("single-run calibration suspiciously accurate (%v rad); cable imbalance should bias it", e)
	}
}

func TestCableImbalanceRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	a.RandomizePhaseOffsets(rng)
	ext := NewImperfectCables(4, 0.2, rng)
	tone := &CalibrationTone{ExternalPhases: ext}
	imb, err := CableImbalance(a, tone)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 4; k++ {
		want := wrapPhase(ext[0] - ext[k])
		if math.Abs(wrapPhase(imb[k]-want)) > 1e-9 {
			t.Errorf("cable %d imbalance = %v, want %v", k, imb[k], want)
		}
	}
}

func TestCalibrationWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.RandomizePhaseOffsets(rng)
	tone := &CalibrationTone{
		ExternalPhases: NewImperfectCables(8, 0.3, rng),
		PhaseNoise:     0.01,
		Rng:            rng,
	}
	measured, err := Calibrate(a, tone)
	if err != nil {
		t.Fatal(err)
	}
	if e := OffsetError(a, measured); e > 0.05 {
		t.Errorf("noisy calibration residual = %v rad, want < 0.05", e)
	}
}

func TestCalibrateErrorOnMissingCables(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	tone := &CalibrationTone{ExternalPhases: []float64{0, 0}}
	if _, err := Calibrate(a, tone); err == nil {
		t.Error("expected error with too few cables")
	}
}

func TestValidate(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	if err := a.Validate(); err != nil {
		t.Errorf("valid array rejected: %v", err)
	}
	bad := NewLinear(geom.Pt(0, 0), 0, 1, lambda)
	if err := bad.Validate(); err == nil {
		t.Error("1-element array accepted")
	}
	a.PhaseOffsets = []float64{0, 0}
	if err := a.Validate(); err == nil {
		t.Error("mismatched offsets accepted")
	}
}

func TestBearingTo(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	if got := a.BearingTo(geom.Pt(0, 5)); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("BearingTo = %v", got)
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{3 * math.Pi, math.Pi},
		{-3 * math.Pi, math.Pi},
		{math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := wrapPhase(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("wrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCentroid(t *testing.T) {
	a := NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	c := a.Centroid()
	want := 3.5 * lambda / 2
	if math.Abs(c.X-want) > 1e-12 || math.Abs(c.Y) > 1e-12 {
		t.Errorf("Centroid = %v", c)
	}
}

// TestCorrectSnapshotsMatchesPerSnapshotExp pins the per-frame form
// (phasors computed once) bit-identical to multiplying each element of
// every snapshot by its own cmplx.Exp(−jψ_k), including the zero-offset
// skip, offsets shorter and longer than the snapshot, and a reused
// scratch buffer.
func TestCorrectSnapshotsMatchesPerSnapshotExp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []complex128
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(9)
		offsets := make([]float64, m-1+rng.Intn(3))
		for k := range offsets {
			if rng.Intn(4) > 0 {
				offsets[k] = (rng.Float64() - 0.5) * 4 * math.Pi
			}
		}
		snaps := make([][]complex128, 1+rng.Intn(12))
		want := make([][]complex128, len(snaps))
		for i := range snaps {
			snaps[i] = make([]complex128, m)
			for k := range snaps[i] {
				snaps[i][k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want[i] = append([]complex128(nil), snaps[i]...)
			for k := range want[i] {
				if k < len(offsets) && offsets[k] != 0 {
					want[i][k] *= cmplx.Exp(complex(0, -offsets[k]))
				}
			}
		}
		scratch = CorrectSnapshots(snaps, offsets, scratch)
		for i := range snaps {
			for k := range snaps[i] {
				if snaps[i][k] != want[i][k] {
					t.Fatalf("trial %d snapshot %d element %d: %v, per-snapshot exp gives %v", trial, i, k, snaps[i][k], want[i][k])
				}
			}
		}
	}
}
