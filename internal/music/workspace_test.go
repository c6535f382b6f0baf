package music

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
)

func workspaceTestStreams(rng *rand.Rand, a *array.Array) [][]complex128 {
	return synth(a, []float64{geom.Rad(50), geom.Rad(120)}, []complex128{1, 0.6}, 40, true, 0.05, rng)
}

// TestWorkspaceSpectrumBitIdentical pins the workspace invariant: a
// reused workspace must reproduce a fresh one bin for bin with exact
// equality (==, not a tolerance), across repeated reuse and resizing,
// calibration, forward-backward, and shared and private steering
// caches.
func TestWorkspaceSpectrumBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := &Workspace{}
	for trial := 0; trial < 8; trial++ {
		n := 6 + 2*(trial%2) // alternate 6 and 8 antennas to exercise resizing
		a := array.NewLinear(geom.Pt(0, 0), 0, n, lambda)
		streams := workspaceTestStreams(rng, a)
		opt := Options{
			Wavelength:      lambda,
			SmoothingGroups: 2,
			MaxSamples:      10,
			SampleOffset:    trial % 3,
			ForwardBackward: trial%2 == 0,
		}
		if trial >= 4 {
			opt.Steering = NewSteeringCache(0)
		}
		if trial%3 == 0 {
			calib := make([]float64, n)
			for k := range calib {
				calib[k] = 0.1 * float64(k)
			}
			opt.CalibrationOffsets = calib
		}
		want, err := ComputeSpectrumWS(nil, a, streams, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeSpectrumWS(ws, a, streams, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.P) != len(want.P) {
			t.Fatalf("trial %d: bin count %d vs %d", trial, len(got.P), len(want.P))
		}
		for i := range want.P {
			if got.P[i] != want.P[i] {
				t.Fatalf("trial %d: bin %d differs: %v vs %v (not bit-identical)", trial, i, got.P[i], want.P[i])
			}
		}
	}
}

// TestWorkspaceStagesBitIdentical checks each WS stage on a reused
// workspace against its fresh-workspace twin in isolation.
func TestWorkspaceStagesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := workspaceTestStreams(rng, a)
	snaps := SnapshotsAt(streams[:a.N], 2, 12)
	ws := &Workspace{}

	wsSnaps := SnapshotsAtWS(ws, streams[:a.N], 2, 12)
	if len(wsSnaps) != len(snaps) {
		t.Fatalf("snapshot count %d vs %d", len(wsSnaps), len(snaps))
	}
	for i := range snaps {
		for j := range snaps[i] {
			if wsSnaps[i][j] != snaps[i][j] {
				t.Fatal("snapshots differ")
			}
		}
	}

	r, err := CorrelationMatrixWS(nil, snaps)
	if err != nil {
		t.Fatal(err)
	}
	rWS, err := CorrelationMatrixWS(ws, wsSnaps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Data {
		if r.Data[i] != rWS.Data[i] {
			t.Fatal("correlation differs")
		}
	}

	fb := ForwardBackwardWS(nil, r)
	fbWS := ForwardBackwardWS(ws, rWS)
	for i := range fb.Data {
		if fb.Data[i] != fbWS.Data[i] {
			t.Fatal("forward-backward differs")
		}
	}

	for ng := 1; ng <= 3; ng++ {
		sm, err := SpatialSmoothWS(nil, fb, ng)
		if err != nil {
			t.Fatal(err)
		}
		smWS, err := SpatialSmoothWS(ws, fbWS, ng)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Rows != smWS.Rows {
			t.Fatal("smoothed shape differs")
		}
		for i := range sm.Data {
			if sm.Data[i] != smWS.Data[i] {
				t.Fatalf("smoothed (ng=%d) differs", ng)
			}
		}
	}

	sm, _ := SpatialSmoothWS(nil, fb, 2)
	smWS, _ := SpatialSmoothWS(ws, fbWS, 2)
	noise, signal, d, err := SubspacesWS(nil, sm, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	noiseWS, signalWS, dWS, err := SubspacesWS(ws, smWS, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d != dWS {
		t.Fatalf("signal count %d vs %d", d, dWS)
	}
	for i := range noise.Data {
		if noise.Data[i] != noiseWS.Data[i] {
			t.Fatal("noise subspace differs")
		}
	}
	for i := range signal.Data {
		if signal.Data[i] != signalWS.Data[i] {
			t.Fatal("signal subspace differs")
		}
	}
}

// TestWorkspaceSteadyStateAllocs: with a warmed workspace and steering
// cache, one spectrum costs only its escaping output (a handful of
// allocations), at least 3x below a fresh workspace per call.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := workspaceTestStreams(rng, a)[:a.N]
	opt := Options{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      10,
		SampleOffset:    3,
		ForwardBackward: true,
		Steering:        NewSteeringCache(0),
	}
	ws := &Workspace{}
	if _, err := ComputeSpectrumWS(ws, a, streams, opt); err != nil {
		t.Fatal(err)
	}

	allocating := testing.AllocsPerRun(20, func() {
		if _, err := ComputeSpectrumWS(nil, a, streams, opt); err != nil {
			t.Fatal(err)
		}
	})
	workspace := testing.AllocsPerRun(20, func() {
		if _, err := ComputeSpectrumWS(ws, a, streams, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: allocating=%.0f workspace=%.0f", allocating, workspace)
	if workspace*3 > allocating {
		t.Fatalf("workspace path allocates %.0f/op vs %.0f/op allocating — want ≥3x reduction", workspace, allocating)
	}
	// The absolute number matters too: only the escaping Spectrum (and
	// its backing slice) should remain.
	if workspace > 8 {
		t.Fatalf("workspace path allocates %.0f/op steady-state, want ≤8", workspace)
	}
}

func TestWorkspacePool(t *testing.T) {
	pool := SharedWorkspacePool()
	ws := pool.Get()
	if ws == nil {
		t.Fatal("pool returned nil workspace")
	}
	pool.Put(ws)
}

// TestEstimators: MUSICEstimator, handed a frame's snapshots from a
// single strong source, peaks at the true bearing (or its mirror
// across the linear array's axis) and matches ComputeSpectrumWS, which
// takes the snapshots itself, bit for bit.
func TestEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	truth := geom.Rad(65)
	streams := synth(a, []float64{truth}, []complex128{1}, 40, false, 0.02, rng)[:a.N]
	opt := Options{Wavelength: lambda, SmoothingGroups: 2, MaxSamples: 20}
	ws := &Workspace{}

	want, err := ComputeSpectrumWS(nil, a, streams, opt)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := CalibratedSnapshotsWS(ws, streams, opt.SampleOffset, opt.MaxSamples, opt.CalibrationOffsets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MUSICEstimator.Spectrum(ws, a, snaps, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, bin := got.Max()
	peak := got.Theta(bin)
	diff := geom.Deg(geom.AngleDiff(peak, truth))
	mirror := geom.Deg(geom.AngleDiff(peak, geom.NormalizeAngle(-truth)))
	if math.Min(diff, mirror) > 4 {
		t.Errorf("peak at %.1f°, truth %.1f° (off by %.1f°)", geom.Deg(peak), geom.Deg(truth), diff)
	}
	for i := range want.P {
		if got.P[i] != want.P[i] {
			t.Fatal("MUSIC estimator must match ComputeSpectrumWS bit for bit")
		}
	}
}
