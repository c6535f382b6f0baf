package testbed

import (
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestTrackingSmoothedBeatsRaw is the tracking acceptance bar: driving
// the Kalman layer over a testbed roaming trajectory, the smoothed
// track must not be worse than the raw fixes (RMSE), every fix's
// result must carry its track update, and the predictive engine must
// serve the moving client as well as the full grid does.
func TestTrackingSmoothedBeatsRaw(t *testing.T) {
	tb := New()
	opt := DefaultTrackingOptions(true)
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
		t.Fatalf("results carried %d track updates, want %d", res.Updates, opt.Steps)
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

// TestTrackingDeterministic: the drills are fixtures for docs and CI
// artifacts, and the ops, chaos and cluster "== control" bars rest on
// a walk served twice giving the same fixes. So two runs of each drill
// with the same options must agree exactly: the served smoothed
// trajectory and every gated count. Wall-clock outcomes are left out.
func TestTrackingDeterministic(t *testing.T) {
	tb := New()
	drills := []struct {
		name string
		run  func() (res any, served *trial, err error)
	}{
		{"tracking", func() (any, *trial, error) {
			opt := DefaultTrackingOptions(true)
			opt.Steps = 6
			_, res, err := tb.RunTracking(opt)
			if err != nil {
				return nil, nil, err
			}
			return res, res.served, nil
		}},
		{"ops", func() (any, *trial, error) {
			opt := DefaultOpsOptions(true)
			opt.Steps = 6
			_, res, err := tb.RunOps(opt)
			if err != nil {
				return nil, nil, err
			}
			return res, res.served, nil
		}},
		{"chaos", func() (any, *trial, error) {
			_, res, err := tb.RunChaos(DefaultChaosOptions(true))
			if err != nil {
				return nil, nil, err
			}
			// How long the reap took is a wall-clock outcome.
			res.ReapedWithin = 0
			return res, res.served, nil
		}},
		{"cluster", func() (any, *trial, error) {
			opt := DefaultClusterOptions(true)
			opt.Steps = 6
			_, res, err := tb.RunCluster(opt)
			if err != nil {
				return nil, nil, err
			}
			return res, res.served, nil
		}},
	}
	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			a, served, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			if served == nil || len(served.smoothed) == 0 {
				t.Fatal("drill recorded no served trajectory")
			}
			b, _, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s not deterministic:\n%+v\n%+v", d.name, a, b)
			}
		})
	}
}

// TestTrackerOptionsFlowThrough: gate/noise settings reach the
// engine's tracker.
func TestTrackerOptionsFlowThrough(t *testing.T) {
	tb := New()
	opt := DefaultTrackingOptions(true)
	opt.Steps = 4
	opt.Tracker = engine.TrackerOptions{ProcessNoise: 2, MeasSigma: 1, Gate: -1}
	if _, _, err := tb.RunTracking(opt); err != nil {
		t.Fatal(err)
	}
}
