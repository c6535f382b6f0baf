package testbed

import (
	"os"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/ops"
)

// OpsOptions sizes the operations experiment: a mid-walk kill→restore
// of the serving process, validated against an uninterrupted control
// run over identical captures. The process is killed before step
// Steps/2.
type OpsOptions struct {
	// Steps is the number of fixes along the walk.
	Steps int
	// Sites indexes the AP sites that hear the clients.
	Sites []int
}

// DefaultOpsOptions walks the corridor for 20 fixes and kills the
// server after the 10th; fast walks 10 fixes heard by four APs.
func DefaultOpsOptions(fast bool) OpsOptions {
	if fast {
		return OpsOptions{Steps: 10, Sites: []int{0, 1, 3, 5}}
	}
	return OpsOptions{Steps: 20, Sites: []int{0, 1, 2, 3, 4, 5}}
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

	served *trial
}

// RunOps regenerates the run-it-like-a-service claim: a serving
// process killed mid-walk and restored from its snapshot must lose no
// tracks and produce *exactly* the smoothed trajectory an
// uninterrupted process produces — the snapshot carries the full
// Kalman state, so the restart is invisible in the output.
func (tb *Testbed) RunOps(opt OpsOptions) (*Report, *OpsResult, error) {
	w := tb.newWalk(walkShape{
		steps: opt.Steps, capture: DefaultCaptureOptions(), gridCell: 0.25, tracker: drillTracker, seed: 67,
	}, walkClient{1, opt.Sites}, walkClient{2, opt.Sites})
	aps := tb.APsFor(opt.Sites, w.capture)
	res := &OpsResult{}

	var tracker *engine.Tracker
	var eng *engine.Engine
	start := func() {
		tracker = engine.NewTracker(w.trackerOptions())
		eng = engine.New(engine.Options{Config: w.cfg, Tracker: tracker})
	}
	defer func() { eng.Close() }()
	serve := func(i int) (map[uint32]engine.Result, error) {
		fixes := map[uint32]engine.Result{}
		for c, cl := range w.clients {
			fixes[cl.id] = eng.Locate(w.request(c, i, aps))
		}
		return fixes, nil
	}

	// Control: one process, no restart.
	start()
	ctrl, err := w.run(serve, nil)
	if err != nil {
		return nil, nil, err
	}
	eng.Drain()

	// Restored: drain, snapshot to disk, then a brand-new
	// tracker+engine restores and finishes the walk.
	dir, err := os.MkdirTemp("", "atops")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "tracks.json")
	restart := func() error {
		liveBefore := len(tracker.Clients())
		eng.Drain() // graceful: refuse, flush, quiesce
		if err := ops.Save(snapPath, ops.NewSnapshot(tracker, walkBase.UnixNano())); err != nil {
			return err
		}
		if fi, err := os.Stat(snapPath); err == nil {
			res.SnapshotBytes = fi.Size()
		}
		loaded, err := ops.Load(snapPath)
		if err != nil {
			return err
		}
		start()
		res.RestoredTracks = tracker.Restore(loaded.Tracks)
		res.TracksLost = liveBefore - res.RestoredTracks
		return nil
	}
	start()
	rest, err := w.run(serve, restart)
	if err != nil {
		return nil, nil, err
	}
	res.served = rest

	// The restored engine's ops endpoint must serve a scrapeable
	// exposition — the same surface CI curls on the live server.
	code, body := get((&ops.Server{Engine: eng}).Handler(), "/metrics")
	res.MetricsOK = code == 200 &&
		strings.Contains(body, "arraytrack_fixes_total") &&
		strings.Contains(body, "arraytrack_tracked_clients 2")

	res.StepMismatches = mismatches(ctrl, rest, 1, 2)
	res.SmoothedRMSECM = rest.rmse(1)
	res.RMSEDeltaCM = rmseDelta(ctrl, rest, 1)

	r := &Report{ID: "ops", Title: "kill→snapshot→restore mid-walk vs uninterrupted run"}
	w.table(r, ctrl, rest, "restored", "<- restored here")
	r.Addf("")
	r.Addf("killed after step %d of %d; snapshot %d bytes, %d tracks restored, %d lost",
		w.mid(), opt.Steps, res.SnapshotBytes, res.RestoredTracks, res.TracksLost)
	r.Addf("walker smoothed RMSE: control %.1fcm, restored %.1fcm (delta %.3fcm)",
		ctrl.rmse(1), res.SmoothedRMSECM, res.RMSEDeltaCM)
	r.Addf("per-step smoothed mismatches across both clients: %d", res.StepMismatches)
	r.Addf("metrics endpoint scrape ok: %v", res.MetricsOK)
	return r, res, nil
}
