package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

// The four drills (tracking, ops, chaos, cluster) walk one corridor on
// one simulated clock: a fix every walkDt seconds of 2023-era time,
// the walker moving at walkSpeed.
const (
	walkDt    = 1.0 // seconds between fixes
	walkSpeed = 1.2 // m/s
)

var (
	walkBase = time.Unix(1700000000, 0)
	// stationaryPos is where the drills' second client sits: a
	// stationary track is the easiest one to lose in a restart or a
	// handoff, since its only updates are the ones the drill must not
	// drop.
	stationaryPos = geom.Pt(33, 3)
	// drillTracker is the Kalman layer every drill serves through.
	drillTracker = engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3}
)

// walkShape sizes one drill's walk.
type walkShape struct {
	steps    int
	capture  CaptureOptions
	gridCell float64
	tracker  engine.TrackerOptions
	seed     int64
}

// walkClient is one transmitter on the walk and the AP sites that hear
// it.
type walkClient struct {
	id    uint32
	sites []int
}

// walk is the trial-runner under the four drills. Each drill is one
// controlled baseline and one changed factor (a restart, a dead AP, a
// shard migration), so the walk draws every capture once — the control
// and the perturbed run serve identical inputs, and any divergence is
// the serving path's fault, not the channel model's.
type walk struct {
	walkShape
	tb *Testbed
	// clients[0] walks the corridor; clients[1], if present, sits at
	// stationaryPos.
	clients []walkClient
	cfg     core.Config
	// frames[i][c][s] are the cut frames client c sent at step i as its
	// s-th site heard them, drawn step → client → site.
	frames [][][][]core.FrameCapture
	// now is the simulated clock in UnixNano. Engine workers read it
	// concurrently with the step loop, so it is atomic.
	now atomic.Int64
}

func (tb *Testbed) newWalk(shape walkShape, clients ...walkClient) *walk {
	w := &walk{walkShape: shape, tb: tb, clients: clients, cfg: core.DefaultConfig(tb.Wavelength)}
	w.cfg.GridCell = shape.gridCell
	w.now.Store(walkBase.UnixNano())
	rng := rand.New(rand.NewSource(shape.seed))
	w.frames = make([][][][]core.FrameCapture, shape.steps)
	for i := range w.frames {
		w.frames[i] = make([][][]core.FrameCapture, len(clients))
		for c, cl := range clients {
			w.frames[i][c] = make([][]core.FrameCapture, len(cl.sites))
			for s, site := range cl.sites {
				w.frames[i][c][s] = Cut(tb.CaptureClient(w.truth(c, i), tb.Sites[site], shape.capture, rng))
			}
		}
	}
	return w
}

// corridorPos returns the walker's true position at step i: east
// along the interior corridor, turning north for the tail so the
// tracker sees a manoeuvre, clamped inside the floor.
func corridorPos(i int) geom.Point {
	d := walkSpeed * walkDt * float64(i)
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

func (w *walk) truth(c, i int) geom.Point {
	if c == 0 {
		return corridorPos(i)
	}
	return stationaryPos
}

func (w *walk) stepTime(i int) time.Time {
	return walkBase.Add(time.Duration(float64(i) * walkDt * float64(time.Second)))
}

func (w *walk) clock() time.Time { return time.Unix(0, w.now.Load()) }

// mid is the step before which a drill perturbs its run.
func (w *walk) mid() int { return w.steps / 2 }

// trackerOptions is the shape's tracker on the walk's clock: the walk
// replays 2023-era timestamps, so against the wall clock every TTL
// check would judge each track stale.
func (w *walk) trackerOptions() engine.TrackerOptions {
	opt := w.tracker
	opt.Now = w.clock
	return opt
}

// request is client c's step-i job for an engine serving the APs of
// its sites.
func (w *walk) request(c, i int, aps []*core.AP) engine.Request {
	return engine.Request{
		ClientID: w.clients[c].id,
		APs:      aps,
		Captures: w.frames[i][c],
		Min:      w.tb.Plan.Min,
		Max:      w.tb.Plan.Max,
		Time:     w.stepTime(i),
	}
}

// trial is what one pass of the walk served: each client's smoothed
// position and its error from the truth, step by step.
type trial struct {
	smoothed map[uint32][]geom.Point
	errsCM   map[uint32][]float64
}

func (t *trial) rmse(id uint32) float64 { return rmseSqrt(t.errsCM[id]) }

// run serves the walk step by step and records every client's tracked
// fix. At each step the clock moves to the step's time, then perturb
// (when non-nil, at mid only) changes the drill's one factor, then
// serve returns the step's fixes by client ID. A fix that failed or
// came back untracked fails the run; a client serve leaves out has no
// fix at that step.
func (w *walk) run(serve func(i int) (map[uint32]engine.Result, error), perturb func() error) (*trial, error) {
	t := &trial{smoothed: map[uint32][]geom.Point{}, errsCM: map[uint32][]float64{}}
	for i := 0; i < w.steps; i++ {
		w.now.Store(w.stepTime(i).UnixNano())
		if perturb != nil && i == w.mid() {
			if err := perturb(); err != nil {
				return nil, err
			}
		}
		fixes, err := serve(i)
		if err != nil {
			return nil, err
		}
		for c, cl := range w.clients {
			r, ok := fixes[cl.id]
			if !ok {
				continue
			}
			if r.Err != nil {
				return nil, fmt.Errorf("testbed: step %d, client %d: %w", i, cl.id, r.Err)
			}
			if r.Track == nil {
				return nil, fmt.Errorf("testbed: step %d: no track update for client %d", i, cl.id)
			}
			t.smoothed[cl.id] = append(t.smoothed[cl.id], r.Track.Smoothed)
			t.errsCM[cl.id] = append(t.errsCM[cl.id], r.Track.Smoothed.Dist(w.truth(c, i))*100)
		}
	}
	return t, nil
}

// mismatches counts the steps at which run's smoothed positions for
// the given clients differ (at all) from control's.
func mismatches(control, run *trial, ids ...uint32) int {
	n := 0
	for _, id := range ids {
		for i, p := range control.smoothed[id] {
			if i >= len(run.smoothed[id]) || run.smoothed[id][i] != p {
				n++
			}
		}
	}
	return n
}

// rmseDelta is |control RMSE − run RMSE| over one client's smoothed
// errors.
func rmseDelta(control, run *trial, id uint32) float64 {
	return math.Abs(run.rmse(id) - control.rmse(id))
}

// table adds the walker's step / truth / control / run rows, marking
// the perturbed step.
func (w *walk) table(r *Report, control, run *trial, runName, mark string) {
	id := w.clients[0].id
	r.Addf("%4s  %-14s %-14s %-14s  %s", "step", "truth", "control", runName, "")
	for i := 0; i < w.steps; i++ {
		truth := w.truth(0, i)
		c, g := control.smoothed[id][i], run.smoothed[id][i]
		m := ""
		if i == w.mid() {
			m = mark
		}
		r.Addf("%4d  (%5.1f,%4.1f)   (%5.1f,%4.1f)   (%5.1f,%4.1f)  %s",
			i+1, truth.X, truth.Y, c.X, c.Y, g.X, g.Y, m)
	}
}

// collectFixes drains results until want clients have a fix, keyed by
// client. Past a minute it returns what arrived, with an error.
func collectFixes(results chan engine.Result, want int) (map[uint32]engine.Result, error) {
	out := make(map[uint32]engine.Result, want)
	deadline := time.NewTimer(time.Minute)
	defer deadline.Stop()
	for len(out) < want {
		select {
		case r := <-results:
			out[r.ClientID] = r
		case <-deadline.C:
			return out, fmt.Errorf("testbed: timed out with fixes for %d of %d clients", len(out), want)
		}
	}
	return out, nil
}

// get serves one GET of path from an ops handler and returns the
// status and body.
func get(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
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
