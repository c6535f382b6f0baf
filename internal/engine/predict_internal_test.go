package engine

// Internal tests for the predictive track-guided path: every verify
// outcome (hit, gate reject, border argmax, no track, region error)
// is staged deterministically with synthetic single-lobe spectra, so
// the fallback logic is pinned without a full capture pipeline.

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
)

// lobeScene builds four corner APs each holding a single Gaussian
// lobe at the true bearing to the target: one sharp global likelihood
// peak exactly at the target.
func lobeScene(target geom.Point) []core.APSpectrum {
	positions := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(39.5, 0.7), geom.Pt(39.3, 15.5), geom.Pt(0.6, 15.2),
	}
	aps := make([]core.APSpectrum, len(positions))
	for i, pos := range positions {
		s := music.NewSpectrum(360)
		c := geom.Deg(pos.Bearing(target))
		for b := range s.P {
			d := math.Abs(float64(b) - c)
			if d > 180 {
				d = 360 - d
			}
			s.P[b] = math.Exp(-d * d / (2 * 16))
		}
		aps[i] = core.APSpectrum{Pos: pos, Spectrum: s.Normalize()}
	}
	return aps
}

func TestPredictiveFixVerifyAndFallbacks(t *testing.T) {
	base := time.Unix(1700000000, 0)
	tracker := NewTracker(TrackerOptions{ProcessNoise: 0.5, MeasSigma: 0.5, Gate: 4,
		Now: func() time.Time { return base }})
	cfg := core.Config{Wavelength: 0.1225, GridCell: 0.10, SynthCache: core.NewSynthCache(0)}
	eng := New(Options{Workers: 1, Config: cfg, Tracker: tracker, Predict: true})
	defer eng.Close()

	// Mature a stationary track at (20, 8).
	for i := 0; i < 4; i++ {
		tracker.ObserveFix(7, geom.Pt(20, 8), base.Add(time.Duration(i)*time.Second), false)
	}
	at := base.Add(4 * time.Second)
	pred, ok := tracker.Predict(7, at, DefaultPredictMinFixes)
	if !ok {
		t.Fatal("matured track did not predict")
	}
	req := Request{ClientID: 7, Min: geom.Pt(0, 0), Max: geom.Pt(40, 16), Time: at}

	// Verified hit: the scene's peak sits near the predicted position,
	// strictly inside the gate box.
	target := geom.Pt(20.3, 8.2)
	pos, served := eng.predictiveFix(req, lobeScene(target))
	if !served {
		t.Fatalf("peak at %v near prediction %v was not served predictively", target, pred.Pos)
	}
	if pos.Dist(target) > 0.5 {
		t.Fatalf("predictive fix %v far from the scene peak %v", pos, target)
	}

	// Gate reject: a peak near the box corner is interior to the
	// region but outside the Mahalanobis ellipse (corner distance ≈
	// 0.93·σ·√2 > σ).
	_, hi := pred.Box(eng.PredictSigma())
	corner := geom.Pt(
		pred.Pos.X+0.93*(hi.X-pred.Pos.X),
		pred.Pos.Y+0.93*(hi.Y-pred.Pos.Y),
	)
	if d := math.Sqrt(pred.MahalanobisSq(corner)); d <= pred.Gate {
		t.Fatalf("test setup: corner %v at %.2fσ, need > gate %.1f", corner, d, pred.Gate)
	}
	if _, served := eng.predictiveFix(req, lobeScene(corner)); served {
		t.Fatal("gate-rejected peak was served predictively")
	}

	// Border fallback: the peak lies well outside the predicted box,
	// so the region argmax hugs an open border.
	outside := geom.Pt(hi.X+4, pred.Pos.Y)
	if _, served := eng.predictiveFix(req, lobeScene(outside)); served {
		t.Fatal("peak outside the predicted region was served predictively")
	}

	// No track: an unknown client never predicts.
	req99 := req
	req99.ClientID = 99
	if _, served := eng.predictiveFix(req99, lobeScene(target)); served {
		t.Fatal("client with no track was served predictively")
	}

	// Region error: a search area that excludes the whole predicted
	// box (as after a long coast off the floor) falls back cleanly.
	reqFar := req
	reqFar.Min, reqFar.Max = geom.Pt(30, 0), geom.Pt(40, 16)
	if _, served := eng.predictiveFix(reqFar, lobeScene(target)); served {
		t.Fatal("prediction outside the search area was served predictively")
	}

	st := eng.Stats()
	if st.Predicted != 1 {
		t.Fatalf("Predicted = %d, want 1", st.Predicted)
	}
	if st.PredictFallbackGate != 1 {
		t.Fatalf("PredictFallbackGate = %d, want 1", st.PredictFallbackGate)
	}
	if st.PredictFallbackBorder != 1 {
		t.Fatalf("PredictFallbackBorder = %d, want 1", st.PredictFallbackBorder)
	}
	if st.PredictFallbackNoTrack != 1 {
		t.Fatalf("PredictFallbackNoTrack = %d, want 1", st.PredictFallbackNoTrack)
	}
	if st.PredictFallbackError != 1 {
		t.Fatalf("PredictFallbackError = %d, want 1", st.PredictFallbackError)
	}
}

// TestPredictSigmaClampedToGate: a sigma below the tracker's gate
// would carve a region smaller than the gate ellipse — fixes the
// tracker would accept could fall outside it. The engine raises it.
func TestPredictSigmaClampedToGate(t *testing.T) {
	tracker := NewTracker(TrackerOptions{Gate: 5})
	eng := New(Options{Workers: 1, Config: core.Config{}, Tracker: tracker, Predict: true})
	defer eng.Close()
	eng.SetPredictSigma(2)
	if s := eng.PredictSigma(); s != 5 {
		t.Fatalf("predSigma = %v, want clamped to the tracker gate 5", s)
	}
	// Every value below the gate is clamped the same way, and a
	// negative value disables the predictive path.
	eng.SetPredictSigma(3)
	if s := eng.PredictSigma(); s != 5 {
		t.Fatalf("hot-reloaded predSigma = %v, want clamped to the tracker gate 5", s)
	}
	eng.SetPredictSigma(7)
	if s := eng.PredictSigma(); s != 7 {
		t.Fatalf("hot-reloaded predSigma = %v, want 7", s)
	}
	eng.SetPredictSigma(-1)
	if s := eng.PredictSigma(); s != 0 {
		t.Fatalf("negative sigma did not disable the predictive path (sigma %v)", s)
	}
	// Predict without a tracker stays disabled — including via the
	// hot-reload path.
	bare := New(Options{Workers: 1, Config: core.Config{}, Predict: true})
	defer bare.Close()
	bare.SetPredictSigma(4)
	if s := bare.PredictSigma(); s != 0 {
		t.Fatalf("predictive path enabled without a tracker (sigma %v)", s)
	}
}

// TestTrackerPredictMaturity: Predict reports false for unknown,
// immature, and stale tracks, and true (with a sane box) once the
// track has enough accepted fixes.
func TestTrackerPredictMaturity(t *testing.T) {
	now := time.Unix(1700000000, 0)
	tracker := NewTracker(TrackerOptions{TTL: 10 * time.Second,
		Now: func() time.Time { return now }})
	if _, ok := tracker.Predict(1, now, 3); ok {
		t.Fatal("unknown client predicted")
	}
	tracker.ObserveFix(1, geom.Pt(5, 5), now, false)
	tracker.ObserveFix(1, geom.Pt(5.5, 5), now.Add(time.Second), false)
	if _, ok := tracker.Predict(1, now.Add(2*time.Second), 3); ok {
		t.Fatal("immature track (2 accepted fixes) predicted with minFixes 3")
	}
	tracker.ObserveFix(1, geom.Pt(6, 5), now.Add(2*time.Second), false)
	pred, ok := tracker.Predict(1, now.Add(3*time.Second), 3)
	if !ok {
		t.Fatal("mature track did not predict")
	}
	if pred.Pos.Dist(geom.Pt(6.5, 5)) > 1.5 {
		t.Fatalf("eastward walk predicted at %v, expected near (6.5, 5)", pred.Pos)
	}
	// Stale: past the TTL the track would be restarted, so its
	// prediction is withheld.
	if _, ok := tracker.Predict(1, now.Add(14*time.Second), 3); ok {
		t.Fatal("stale track predicted")
	}
}
