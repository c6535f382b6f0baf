package testbed

import (
	"testing"

	"repro/internal/engine"
)

// trackingTestOptions shrinks the walk so the test stays quick while
// still covering the corner manoeuvre.
func trackingTestOptions() TrackingOptions {
	opt := DefaultTrackingOptions()
	opt.Steps = 16
	opt.Sites = []int{0, 1, 3, 5}
	return opt
}

// TestTrackingSmoothedBeatsRaw is the ISSUE's acceptance bar: driving
// the Kalman layer over a testbed roaming trajectory, the smoothed
// track must not be worse than the raw fixes (RMSE), the streaming
// subscription must deliver every update, and the predictive engine
// must serve the moving client as well as the full grid does.
func TestTrackingSmoothedBeatsRaw(t *testing.T) {
	tb := New()
	opt := trackingTestOptions()
	_, res, err := tb.RunTracking(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("raw RMSE %.1f cm, smoothed RMSE %.1f cm, gate rejects %d",
		res.RawRMSECM, res.SmoothedRMSECM, res.GateRejects)
	if res.SmoothedRMSECM > res.RawRMSECM {
		t.Fatalf("smoothed RMSE %.1f cm worse than raw %.1f cm", res.SmoothedRMSECM, res.RawRMSECM)
	}
	if len(res.RawErrsCM) != opt.Steps || len(res.SmoothedErrsCM) != opt.Steps {
		t.Fatalf("expected %d per-step errors, got %d/%d", opt.Steps, len(res.RawErrsCM), len(res.SmoothedErrsCM))
	}
	if res.Updates != opt.Steps {
		t.Fatalf("subscription streamed %d updates, want %d", res.Updates, opt.Steps)
	}

	// The same walk served track-guided: no worse than the full grid,
	// mostly from the predicted region, every fix accounted for.
	fallbacks := res.FallbackNoTrack + res.FallbackBorder + res.FallbackGate + res.FallbackError
	t.Logf("predictive RMSE %.1f cm, %d/%d fixes from the predicted region (fallbacks: no-track %d, border %d, gate %d, error %d)",
		res.PredictiveRMSECM, res.Predicted, opt.Steps,
		res.FallbackNoTrack, res.FallbackBorder, res.FallbackGate, res.FallbackError)
	if res.PredictiveRMSECM > res.SmoothedRMSECM+2 {
		t.Errorf("predictive RMSE %.1f cm worse than the full-grid tracker's %.1f cm", res.PredictiveRMSECM, res.SmoothedRMSECM)
	}
	if 2*res.Predicted < uint64(opt.Steps) {
		t.Errorf("%d of %d fixes served from the predicted region, want at least half on a steady walk", res.Predicted, opt.Steps)
	}
	if res.Predicted+fallbacks != uint64(opt.Steps) {
		t.Errorf("predicted %d + fallbacks %d != %d steps", res.Predicted, fallbacks, opt.Steps)
	}
}

// TestTrackingDeterministic: the experiment is a fixture for docs and
// CI artifacts, so two runs must agree exactly.
func TestTrackingDeterministic(t *testing.T) {
	tb := New()
	opt := trackingTestOptions()
	opt.Steps = 6
	_, a, err := tb.RunTracking(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := tb.RunTracking(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.RawRMSECM != b.RawRMSECM || a.SmoothedRMSECM != b.SmoothedRMSECM {
		t.Fatalf("tracking not deterministic: %v/%v vs %v/%v",
			a.RawRMSECM, a.SmoothedRMSECM, b.RawRMSECM, b.SmoothedRMSECM)
	}
}

// TestTrackerOptionsFlowThrough: gate/noise settings reach the
// engine's tracker.
func TestTrackerOptionsFlowThrough(t *testing.T) {
	tb := New()
	opt := trackingTestOptions()
	opt.Steps = 4
	opt.Tracker = engine.TrackerOptions{ProcessNoise: 2, MeasSigma: 1, Gate: -1}
	if _, _, err := tb.RunTracking(opt); err != nil {
		t.Fatal(err)
	}
}
