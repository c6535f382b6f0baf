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
// track must not be worse than the raw fixes (RMSE), and the streaming
// subscription must deliver every update.
func TestTrackingSmoothedBeatsRaw(t *testing.T) {
	tb := New()
	opt := trackingTestOptions()
	r, res, err := tb.RunTracking(opt)
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
	var rawM, smoothM bool
	for _, m := range r.Metrics {
		switch m.Name {
		case "raw_rmse_cm":
			rawM = m.Value == res.RawRMSECM
		case "smoothed_rmse_cm":
			smoothM = m.Value == res.SmoothedRMSECM
		}
	}
	if !rawM || !smoothM {
		t.Fatal("report metrics must carry the RMSE headline numbers")
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

// TestRunPerfMeetsAllocTarget runs the perf experiment and enforces
// the workspace path's absolute allocation budget: one spectrum on a
// warm workspace costs only its escaping output.
func TestRunPerfMeetsAllocTarget(t *testing.T) {
	tb := New()
	opt := DefaultPerfOptions()
	opt.Clients = 6
	r, err := tb.RunPerf(opt)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, m := range r.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s missing", name)
		return 0
	}
	if ws := get("spectrum_allocs_workspace"); ws > 8 {
		t.Fatalf("workspace spectrum allocs %.0f, want ≤8", ws)
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
