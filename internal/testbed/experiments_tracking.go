package testbed

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/stats"
)

// TrackingOptions sizes the roaming-client tracking experiment.
type TrackingOptions struct {
	// Steps is the number of fixes along the walk.
	Steps int
	// Sites indexes the AP sites that hear the client.
	Sites []int
	// Tracker configures the Kalman layer.
	Tracker engine.TrackerOptions
}

// DefaultTrackingOptions is a 1.2 m/s corridor walk heard by all six
// APs, one fix per second — the paper's "roaming about a building"
// scenario. fast shrinks it to 16 fixes from four APs, still covering
// the corner manoeuvre.
func DefaultTrackingOptions(fast bool) TrackingOptions {
	if fast {
		return TrackingOptions{Steps: 16, Sites: []int{0, 1, 3, 5}, Tracker: drillTracker}
	}
	return TrackingOptions{Steps: 28, Sites: []int{0, 1, 2, 3, 4, 5}, Tracker: drillTracker}
}

// TrackingResult is the tracking experiment's machine-readable
// outcome.
type TrackingResult struct {
	// RawErrsCM and SmoothedErrsCM are per-step location errors.
	RawErrsCM      []float64
	SmoothedErrsCM []float64
	// RawRMSECM and SmoothedRMSECM are the headline comparison.
	RawRMSECM      float64
	SmoothedRMSECM float64
	// GateRejects counts fixes the tracker's outlier gate discarded.
	GateRejects uint64
	// Updates counts the track updates delivered on the served
	// results (Result.Track).
	Updates int
	// PredictiveRMSECM is the smoothed RMSE of a second engine serving
	// the same captures track-guided (engine.Options.Predict, same
	// tracker options). Predicted counts the fixes it served from the
	// predicted region; the four fallback counters say why each of the
	// others took the full grid, so the five sum to the steps.
	PredictiveRMSECM float64
	Predicted        uint64
	FallbackNoTrack  uint64
	FallbackBorder   uint64
	FallbackGate     uint64
	FallbackError    uint64

	served *trial
}

// RunTracking regenerates the real-time tracking claim: a client walks
// the office while the engine+tracker pipeline returns a smoothed track
// update with every fix, and the smoothed trail is compared against the
// raw per-fix positions. The whole path is the production one — engine
// worker pool, workspace pool, steering cache, tracker. A second
// engine serves the same captures through the predictive region path,
// the one drill of a track-guided search on a moving client.
func (tb *Testbed) RunTracking(opt TrackingOptions) (*Report, *TrackingResult, error) {
	w := tb.newWalk(walkShape{
		steps: opt.Steps, capture: DefaultCaptureOptions(), gridCell: 0.25, tracker: opt.Tracker, seed: 61,
	}, walkClient{1, opt.Sites})
	aps := tb.APsFor(opt.Sites, w.capture)

	tracker := engine.NewTracker(w.trackerOptions())
	eng := engine.New(engine.Options{Config: w.cfg, Tracker: tracker})
	defer eng.Close()
	predEng := engine.New(engine.Options{Config: w.cfg, Tracker: engine.NewTracker(w.trackerOptions()), Predict: true})
	defer predEng.Close()
	var raw []geom.Point
	updates := 0
	var predErrsCM []float64
	t, err := w.run(func(i int) (map[uint32]engine.Result, error) {
		req := w.request(0, i, aps)
		out, pred := eng.Locate(req), predEng.Locate(req)
		if pred.Err != nil {
			return nil, pred.Err
		}
		if pred.Track == nil {
			return nil, fmt.Errorf("testbed: step %d: no predictive track update", i)
		}
		predErrsCM = append(predErrsCM, pred.Track.Smoothed.Dist(w.truth(0, i))*100)
		raw = append(raw, out.Pos)
		if out.Track != nil {
			updates++
		}
		return map[uint32]engine.Result{1: out}, nil
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &TrackingResult{SmoothedErrsCM: t.errsCM[1], Updates: updates, served: t}

	r := &Report{ID: "tracking", Title: "roaming client: raw fixes vs Kalman-smoothed track"}
	r.Addf("%4s  %-14s %-14s %-14s %8s %8s", "step", "truth", "raw fix", "smoothed", "raw", "track")
	for i, p := range raw {
		truth, s := w.truth(0, i), t.smoothed[1][i]
		rawCM := p.Dist(truth) * 100
		res.RawErrsCM = append(res.RawErrsCM, rawCM)
		r.Addf("%4d  (%5.1f,%4.1f)   (%5.1f,%4.1f)   (%5.1f,%4.1f)   %6.0fcm %6.0fcm",
			i+1, truth.X, truth.Y, p.X, p.Y, s.X, s.Y, rawCM, res.SmoothedErrsCM[i])
	}

	res.RawRMSECM = rmseSqrt(res.RawErrsCM)
	res.SmoothedRMSECM = t.rmse(1)
	res.GateRejects = tracker.Stats().GateRejects
	res.PredictiveRMSECM = rmseSqrt(predErrsCM)
	st := predEng.Stats()
	res.Predicted = st.Predicted
	res.FallbackNoTrack = st.PredictFallbackNoTrack
	res.FallbackBorder = st.PredictFallbackBorder
	res.FallbackGate = st.PredictFallbackGate
	res.FallbackError = st.PredictFallbackError

	r.Addf("")
	r.Addf("raw fixes:  %v  RMSE %.0fcm", stats.Summarize(res.RawErrsCM), res.RawRMSECM)
	r.Addf("smoothed:   %v  RMSE %.0fcm", stats.Summarize(res.SmoothedErrsCM), res.SmoothedRMSECM)
	r.Addf("gate rejects %d, streamed updates %d", res.GateRejects, res.Updates)
	r.Addf("predictive serving: smoothed RMSE %.0fcm, %d/%d fixes from the predicted region (fallbacks: no-track %d, border %d, gate %d, error %d)",
		res.PredictiveRMSECM, res.Predicted, opt.Steps,
		res.FallbackNoTrack, res.FallbackBorder, res.FallbackGate, res.FallbackError)
	return r, res, nil
}
