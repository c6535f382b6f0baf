package testbed

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/stats"
)

// TrackingOptions sizes the roaming-client tracking experiment.
type TrackingOptions struct {
	// Steps is the number of fixes along the walk.
	Steps int
	// Dt is the seconds between consecutive fixes.
	Dt float64
	// Speed is the walking speed in m/s.
	Speed float64
	// Sites indexes the AP sites that hear the client.
	Sites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// GridCell is the synthesis pitch (coarser than the paper's
	// 0.10 m keeps a 30-step walk quick).
	GridCell float64
	// Tracker configures the Kalman layer.
	Tracker engine.TrackerOptions
	// Seed drives the channel noise.
	Seed int64
}

// DefaultTrackingOptions is a 1.2 m/s corridor walk heard by all six
// APs, one fix per second — the paper's "roaming about a building"
// scenario.
func DefaultTrackingOptions() TrackingOptions {
	return TrackingOptions{
		Steps:    28,
		Dt:       1.0,
		Speed:    1.2,
		Sites:    []int{0, 1, 2, 3, 4, 5},
		Capture:  DefaultCaptureOptions(),
		GridCell: 0.25,
		Tracker:  engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3},
		Seed:     61,
	}
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
	// Updates counts track updates delivered on the streaming
	// subscription.
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
}

// trackingTruth returns the client's true position at step i: a walk
// east along the interior corridor, turning north for the tail so the
// tracker sees a manoeuvre, clamped inside the floor.
func trackingTruth(opt TrackingOptions, i int) geom.Point {
	d := opt.Speed * opt.Dt * float64(i)
	const legEast = 28.0 // metres east before turning
	start := geom.Pt(4, 6.5)
	if d <= legEast {
		return geom.Pt(start.X+d, start.Y)
	}
	north := d - legEast
	if north > 7 {
		north = 7 // stop short of the top wall
	}
	return geom.Pt(start.X+legEast, start.Y+north)
}

func rmseSqrt(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RunTracking regenerates the real-time tracking claim: a client walks
// the office while the engine+tracker pipeline streams smoothed track
// updates, and the smoothed trail is compared against the raw per-fix
// positions. The whole path is the production one — engine worker
// pool, workspace pool, steering cache, tracker subscription. A second
// engine serves the same captures through the predictive region path,
// the one drill of a track-guided search on a moving client.
func (tb *Testbed) RunTracking(opt TrackingOptions) (*Report, *TrackingResult, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.GridCell
	aps := tb.APsFor(opt.Sites, opt.Capture)

	tracker := engine.NewTracker(opt.Tracker)
	eng := engine.New(engine.Options{Config: cfg, Tracker: tracker})
	defer eng.Close()
	predEng := engine.New(engine.Options{Config: cfg, Tracker: engine.NewTracker(opt.Tracker), Predict: true})
	defer predEng.Close()
	sub, cancel := tracker.Subscribe(opt.Steps + 1)
	defer cancel()

	base := time.Unix(1700000000, 0)
	res := &TrackingResult{}
	var predErrsCM []float64
	r := &Report{ID: "tracking", Title: "roaming client: raw fixes vs Kalman-smoothed track"}
	r.Addf("%4s  %-14s %-14s %-14s %8s %8s", "step", "truth", "raw fix", "smoothed", "raw", "track")

	for i := 0; i < opt.Steps; i++ {
		truth := trackingTruth(opt, i)
		captures := make([][]core.FrameCapture, len(opt.Sites))
		for si, s := range opt.Sites {
			captures[si] = Cut(tb.CaptureClient(truth, tb.Sites[s], opt.Capture, rng))
		}
		req := engine.Request{
			ClientID: 1,
			APs:      aps,
			Captures: captures,
			Min:      tb.Plan.Min,
			Max:      tb.Plan.Max,
			Time:     base.Add(time.Duration(float64(i) * opt.Dt * float64(time.Second))),
		}
		out, pred := eng.Locate(req), predEng.Locate(req)
		if out.Err != nil {
			return nil, nil, out.Err
		}
		if pred.Err != nil {
			return nil, nil, pred.Err
		}
		if out.Track == nil || pred.Track == nil {
			panic("testbed: engine returned no track update with a tracker attached")
		}
		predErrsCM = append(predErrsCM, pred.Track.Smoothed.Dist(truth)*100)
		rawCM := out.Pos.Dist(truth) * 100
		trkCM := out.Track.Smoothed.Dist(truth) * 100
		res.RawErrsCM = append(res.RawErrsCM, rawCM)
		res.SmoothedErrsCM = append(res.SmoothedErrsCM, trkCM)
		r.Addf("%4d  (%5.1f,%4.1f)   (%5.1f,%4.1f)   (%5.1f,%4.1f)   %6.0fcm %6.0fcm",
			i+1, truth.X, truth.Y, out.Pos.X, out.Pos.Y,
			out.Track.Smoothed.X, out.Track.Smoothed.Y, rawCM, trkCM)
	}

	cancel()
	for range sub {
		res.Updates++
	}

	res.RawRMSECM = rmseSqrt(res.RawErrsCM)
	res.SmoothedRMSECM = rmseSqrt(res.SmoothedErrsCM)
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
