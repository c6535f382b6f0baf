package testbed

import (
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/ops"
)

// OpsOptions sizes the operations experiment: a mid-walk kill→restore
// of the serving process, validated against an uninterrupted control
// run over identical captures.
type OpsOptions struct {
	// Steps is the number of fixes along the walk; KillStep is the step
	// before which the first process drains, snapshots, and exits.
	Steps, KillStep int
	// Dt is the seconds between fixes, Speed the walk speed in m/s.
	Dt, Speed float64
	// Sites indexes the AP sites that hear the clients.
	Sites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// GridCell is the synthesis pitch.
	GridCell float64
	// Tracker configures the Kalman layer (identically in both runs).
	Tracker engine.TrackerOptions
	// Seed drives the channel noise.
	Seed int64
}

// DefaultOpsOptions walks the corridor for 20 fixes and kills the
// server after the 10th.
func DefaultOpsOptions() OpsOptions {
	return OpsOptions{
		Steps:    20,
		KillStep: 10,
		Dt:       1.0,
		Speed:    1.2,
		Sites:    []int{0, 1, 2, 3, 4, 5},
		Capture:  DefaultCaptureOptions(),
		GridCell: 0.25,
		Tracker:  engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3},
		Seed:     67,
	}
}

// OpsResult is the machine-readable outcome of the kill→restore run.
type OpsResult struct {
	// TracksLost is how many live tracks did not survive the
	// snapshot→restore cycle. Must be 0.
	TracksLost int
	// StepMismatches counts post-restore steps whose smoothed position
	// differs (at all) from the uninterrupted run. Must be 0.
	StepMismatches int
	// RMSEDeltaCM is |control RMSE − restored-run RMSE| over the
	// walker's smoothed errors. Must be 0: restore is bit-identical.
	RMSEDeltaCM float64
	// SmoothedRMSECM is the restored run's walker RMSE (context).
	SmoothedRMSECM float64
	// RestoredTracks is how many tracks the snapshot carried across.
	RestoredTracks int
	// SnapshotBytes is the on-disk image size.
	SnapshotBytes int64
	// MetricsOK reports that the ops HTTP endpoint served a parseable
	// Prometheus exposition for the restored engine.
	MetricsOK bool
}

// opsClients returns each simulated client's true position at step i:
// client 1 walks the corridor, client 2 sits still in an office —
// a stationary track is the easiest one to lose in a restart, since
// its only updates are the ones the drain must not drop.
func opsClients(opt OpsOptions, i int) map[uint32]geom.Point {
	walk := trackingTruth(TrackingOptions{Dt: opt.Dt, Speed: opt.Speed}, i)
	return map[uint32]geom.Point{1: walk, 2: geom.Pt(33, 3)}
}

// opsStep runs one localization step for every client and records the
// smoothed positions and walker error.
func opsStep(tb *Testbed, eng *engine.Engine, opt OpsOptions, aps []*core.AP,
	captures map[uint32][][]core.FrameCapture, base time.Time, i int,
	smoothed map[uint32][]geom.Point) (walkerErrCM float64, err error) {
	at := base.Add(time.Duration(float64(i) * opt.Dt * float64(time.Second)))
	truth := opsClients(opt, i)
	for _, id := range []uint32{1, 2} {
		out := eng.Locate(engine.Request{
			ClientID: id,
			APs:      aps,
			Captures: captures[id],
			Min:      tb.Plan.Min,
			Max:      tb.Plan.Max,
			Time:     at,
		})
		if out.Err != nil {
			return 0, out.Err
		}
		if out.Track == nil {
			return 0, fmt.Errorf("testbed: no track update for client %d", id)
		}
		smoothed[id] = append(smoothed[id], out.Track.Smoothed)
		if id == 1 {
			walkerErrCM = out.Track.Smoothed.Dist(truth[1]) * 100
		}
	}
	return walkerErrCM, nil
}

// RunOps regenerates the run-it-like-a-service claim: a serving
// process killed mid-walk and restored from its snapshot must lose no
// tracks and produce *exactly* the smoothed trajectory an
// uninterrupted process produces — the snapshot carries the full
// Kalman state, so the restart is invisible in the output. Captures
// are generated once and fed to both runs, so any divergence is the
// restore path's fault, not the channel model's.
func (tb *Testbed) RunOps(opt OpsOptions) (*Report, *OpsResult, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.GridCell
	aps := tb.APsFor(opt.Sites, opt.Capture)
	base := time.Unix(1700000000, 0)

	// Pre-generate every capture so both runs see identical inputs.
	allCaptures := make([]map[uint32][][]core.FrameCapture, opt.Steps)
	for i := 0; i < opt.Steps; i++ {
		truth := opsClients(opt, i)
		step := make(map[uint32][][]core.FrameCapture, len(truth))
		for _, id := range []uint32{1, 2} {
			captures := make([][]core.FrameCapture, len(opt.Sites))
			for si, s := range opt.Sites {
				captures[si] = Cut(tb.CaptureClient(truth[id], tb.Sites[s], opt.Capture, rng))
			}
			step[id] = captures
		}
		allCaptures[i] = step
	}

	res := &OpsResult{}
	r := &Report{ID: "ops", Title: "kill→snapshot→restore mid-walk vs uninterrupted run"}

	// The experiment replays 2023-era timestamps, so the trackers run on
	// the simulated clock — otherwise the snapshot's TTL check would
	// judge every track stale against the real wall clock. Both runs
	// advance the same clock variable; they execute sequentially.
	simNow := base
	trackerOpt := opt.Tracker
	trackerOpt.Now = func() time.Time { return simNow }
	stepTime := func(i int) time.Time {
		return base.Add(time.Duration(float64(i) * opt.Dt * float64(time.Second)))
	}

	// Control: one process, no restart.
	ctrlSmoothed := map[uint32][]geom.Point{}
	var ctrlErrs []float64
	{
		tracker := engine.NewTracker(trackerOpt)
		eng := engine.New(engine.Options{Config: cfg, Tracker: tracker})
		for i := 0; i < opt.Steps; i++ {
			simNow = stepTime(i)
			e, err := opsStep(tb, eng, opt, aps, allCaptures[i], base, i, ctrlSmoothed)
			if err != nil {
				eng.Close()
				return nil, nil, err
			}
			ctrlErrs = append(ctrlErrs, e)
		}
		eng.Drain()
	}

	// Victim: killed after KillStep steps — drain, snapshot to disk,
	// then a brand-new tracker+engine restores and finishes the walk.
	dir, err := os.MkdirTemp("", "atops")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "tracks.json")

	restSmoothed := map[uint32][]geom.Point{}
	var restErrs []float64
	tracker := engine.NewTracker(trackerOpt)
	eng := engine.New(engine.Options{Config: cfg, Tracker: tracker})
	for i := 0; i < opt.KillStep; i++ {
		simNow = stepTime(i)
		e, err := opsStep(tb, eng, opt, aps, allCaptures[i], base, i, restSmoothed)
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		restErrs = append(restErrs, e)
	}
	liveBefore := len(tracker.Clients())
	eng.Drain() // graceful: refuse, flush, quiesce
	if err := ops.Save(snapPath, ops.NewSnapshot(tracker, base.UnixNano())); err != nil {
		return nil, nil, err
	}
	if fi, err := os.Stat(snapPath); err == nil {
		res.SnapshotBytes = fi.Size()
	}

	loaded, err := ops.Load(snapPath)
	if err != nil {
		return nil, nil, err
	}
	tracker = engine.NewTracker(trackerOpt)
	res.RestoredTracks = tracker.Restore(loaded.Tracks)
	res.TracksLost = liveBefore - res.RestoredTracks
	eng = engine.New(engine.Options{Config: cfg, Tracker: tracker})
	for i := opt.KillStep; i < opt.Steps; i++ {
		simNow = stepTime(i)
		e, err := opsStep(tb, eng, opt, aps, allCaptures[i], base, i, restSmoothed)
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		restErrs = append(restErrs, e)
	}

	// The restored engine's ops endpoint must serve a scrapeable
	// exposition — the same surface CI curls on the live server.
	srv := httptest.NewServer((&ops.Server{Engine: eng}).Handler())
	if resp, err := srv.Client().Get(srv.URL + "/metrics"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.MetricsOK = resp.StatusCode == 200 &&
			strings.Contains(string(body), "arraytrack_fixes_total") &&
			strings.Contains(string(body), "arraytrack_tracked_clients 2")
	}
	srv.Close()
	eng.Drain()

	// Compare the two runs step by step.
	r.Addf("%4s  %-14s %-14s %-14s  %s", "step", "truth", "control", "restored", "")
	for i := 0; i < opt.Steps; i++ {
		truth := opsClients(opt, i)[1]
		c, g := ctrlSmoothed[1][i], restSmoothed[1][i]
		mark := ""
		if i == opt.KillStep {
			mark = "<- restored here"
		}
		for _, id := range []uint32{1, 2} {
			if ctrlSmoothed[id][i] != restSmoothed[id][i] {
				res.StepMismatches++
			}
		}
		r.Addf("%4d  (%5.1f,%4.1f)   (%5.1f,%4.1f)   (%5.1f,%4.1f)  %s",
			i+1, truth.X, truth.Y, c.X, c.Y, g.X, g.Y, mark)
	}
	ctrlRMSE, restRMSE := rmseSqrt(ctrlErrs), rmseSqrt(restErrs)
	res.SmoothedRMSECM = restRMSE
	res.RMSEDeltaCM = restRMSE - ctrlRMSE
	if res.RMSEDeltaCM < 0 {
		res.RMSEDeltaCM = -res.RMSEDeltaCM
	}

	r.Addf("")
	r.Addf("killed after step %d of %d; snapshot %d bytes, %d tracks restored, %d lost",
		opt.KillStep, opt.Steps, res.SnapshotBytes, res.RestoredTracks, res.TracksLost)
	r.Addf("walker smoothed RMSE: control %.1fcm, restored %.1fcm (delta %.3fcm)",
		ctrlRMSE, restRMSE, res.RMSEDeltaCM)
	r.Addf("per-step smoothed mismatches across both clients: %d", res.StepMismatches)
	r.Addf("metrics endpoint scrape ok: %v", res.MetricsOK)
	return r, res, nil
}
