package engine_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// TestTrackerClockSkewGuard is the skewed-clock-AP regression test: a
// fix stamped an hour in the future (one AP's clock is broken) must
// not fast-forward the Kalman dt — it is clamped to the tracker's
// clock and counted — and a fix stamped behind the track folds in at
// dt = 0 and is counted NonMonotonic, never rejected.
func TestTrackerClockSkewGuard(t *testing.T) {
	base := time.Unix(1700000000, 0).UTC()
	now := base
	tr := engine.NewTracker(engine.TrackerOptions{
		Gate: -1,
		Now:  func() time.Time { return now },
	})

	tr.ObserveFix(1, geom.Pt(5, 5), base, false)
	now = base.Add(1 * time.Second)
	upd := tr.ObserveFix(1, geom.Pt(5.1, 5), base.Add(time.Hour), false) // broken AP clock
	if upd.Time != now {
		t.Fatalf("skewed fix timestamped %v, want clamped to %v", upd.Time, now)
	}
	if st := tr.Stats(); st.SkewClamped != 1 {
		t.Fatalf("SkewClamped = %d, want 1", st.SkewClamped)
	}
	// The track's clock advanced only to now: a later in-range fix
	// still has positive dt from there, so the guard did not wedge the
	// filter.
	now = base.Add(2 * time.Second)
	upd = tr.ObserveFix(1, geom.Pt(5.2, 5), now, false)
	if upd.Time != now || !upd.Accepted {
		t.Fatalf("post-clamp fix: %+v", upd)
	}

	// A fix behind the track (late flush or skewed-slow clock) counts
	// NonMonotonic and still folds in.
	upd = tr.ObserveFix(1, geom.Pt(5.2, 5), base.Add(500*time.Millisecond), false)
	if !upd.Accepted {
		t.Fatal("backwards fix should fold in at dt=0, not be rejected")
	}
	if st := tr.Stats(); st.NonMonotonic != 1 {
		t.Fatalf("NonMonotonic = %d, want 1", st.NonMonotonic)
	}
	// Within-skew future stamps are left alone.
	upd = tr.ObserveFix(1, geom.Pt(5.3, 5), now.Add(5*time.Second), false)
	if upd.Time != now.Add(5*time.Second) {
		t.Fatalf("in-range future stamp clamped to %v", upd.Time)
	}
	if st := tr.Stats(); st.SkewClamped != 1 {
		t.Fatalf("SkewClamped grew to %d on an in-range stamp", st.SkewClamped)
	}
}

// TestTrackerDegradedGateWidening: a fix that the regular Mahalanobis
// gate rejects must be accepted when flagged degraded (the gate widens
// by DegradedGateScale), while a wild outlier stays rejected either
// way.
func TestTrackerDegradedGateWidening(t *testing.T) {
	base := time.Unix(1700000000, 0).UTC()
	settle := func() *engine.Tracker {
		tr := engine.NewTracker(engine.TrackerOptions{
			MeasSigma: 0.3, Gate: 4,
		})
		for i := 0; i < 12; i++ {
			tr.ObserveFix(1, geom.Pt(5, 5), base.Add(time.Duration(i)*time.Second), false)
		}
		return tr
	}
	at := base.Add(12 * time.Second)

	// Scan for an offset in the band the widened gate opens up:
	// rejected at gate 4, accepted at gate 6.
	foundBand := false
	for dy := 0.5; dy < 12; dy += 0.1 {
		fix := geom.Pt(5, 5+dy)
		if settle().ObserveFix(1, fix, at, false).Accepted {
			continue // inside the regular gate
		}
		updD := settle().ObserveFix(1, fix, at, true)
		if !updD.Accepted {
			// Past even the widened gate: the degraded path still caps
			// outliers. Reaching here without finding the band first
			// would mean widening does nothing.
			if !foundBand {
				t.Fatalf("no offset found where only the degraded gate accepts (dy=%.1f rejected by both)", dy)
			}
			if updD.Smoothed.Dist(geom.Pt(5, 5)) > 1.5 {
				t.Fatalf("degraded outlier yanked track to %v", updD.Smoothed)
			}
			return
		}
		foundBand = true
		if !updD.Degraded {
			t.Fatal("update lost its degraded flag")
		}
		if st := settle().Stats(); st.DegradedObserved != 0 {
			t.Fatalf("fresh tracker has DegradedObserved = %d", st.DegradedObserved)
		}
	}
	if !foundBand {
		t.Fatal("scan never left the regular gate")
	}
}

// TestEngineBurstHeldByBoundedQueue: a burst far deeper than the queue
// is held back by Submit, not dropped. With one worker and the default
// depth (4 × workers), 24 jobs go in from one submitter: the queue
// never holds more than its depth, every job ends in a fix, and
// Submitted == Completed == Fixes.
func TestEngineBurstHeldByBoundedQueue(t *testing.T) {
	const burst, depth = 24, 4
	tb, reqs := testbedRequests(t, 4)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	eng := engine.New(engine.Options{Workers: 1, Config: cfg})
	defer eng.Close()

	var mu sync.Mutex
	var fixes int
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		req := reqs[i%len(reqs)]
		req.ClientID = uint32(200 + i)
		wg.Add(1)
		if err := eng.Submit(req, func(r engine.Result) {
			mu.Lock()
			if r.Err != nil {
				t.Errorf("client %d: %v", r.ClientID, r.Err)
			} else {
				fixes++
			}
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
		if q := eng.Stats().Queued; q > depth {
			t.Fatalf("queue holds %d jobs after submit %d, depth is %d", q, i+1, depth)
		}
	}
	wg.Wait()

	if fixes != burst {
		t.Fatalf("%d fixes from a %d-job burst", fixes, burst)
	}
	st := eng.Stats()
	if st.Submitted != burst || st.Completed != burst || st.Fixes != burst || st.Failures != 0 {
		t.Fatalf("accounting after the burst: %+v, want %d submitted, completed and fixed", st, burst)
	}
}

// TestCaptureSinkDegradedEndToEnd: the backend's Degraded flag rides
// Capture → Request → Result → TrackUpdate, the tracker counts the
// fix, and the engine counts it in DegradedFixes.
func TestCaptureSinkDegradedEndToEnd(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	tr := engine.NewTracker(engine.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 1, Config: cfg, Tracker: tr})
	defer eng.Close()
	results := make(chan engine.Result, 1)
	sink := &engine.CaptureSink{
		Engine:   eng,
		Resolve:  func(apID uint32) *core.AP { return aps[apID-1] },
		Min:      geom.Pt(0, 0),
		Max:      geom.Pt(6, 4),
		OnResult: func(r engine.Result) { results <- r },
	}
	rng := rand.New(rand.NewSource(41))
	now := time.Now().UTC()
	sink.Dispatch(3, []server.Capture{
		{APID: 1, ClientID: 3, Timestamp: now, Streams: mkStreams(rng), Degraded: true},
		{APID: 2, ClientID: 3, Timestamp: now, Streams: mkStreams(rng), Degraded: true},
	})
	r := <-results
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.Degraded {
		t.Fatal("Result lost the degraded flag")
	}
	if r.Track == nil || !r.Track.Degraded {
		t.Fatalf("TrackUpdate lost the degraded flag: %+v", r.Track)
	}
	if st := tr.Stats(); st.DegradedObserved != 1 {
		t.Fatalf("DegradedObserved = %d, want 1", st.DegradedObserved)
	}
	if st := eng.Stats(); st.DegradedFixes != 1 || st.Fixes != 1 {
		t.Fatalf("engine stats %+v, want 1 degraded fix", st)
	}

	// A full-quorum flush stays unflagged.
	sink.Dispatch(3, []server.Capture{
		{APID: 1, ClientID: 3, Timestamp: now.Add(time.Second), Streams: mkStreams(rng)},
		{APID: 2, ClientID: 3, Timestamp: now.Add(time.Second), Streams: mkStreams(rng)},
	})
	if r := <-results; r.Err != nil || r.Degraded {
		t.Fatalf("clean flush came back degraded: %+v", r)
	}
}

// TestCaptureSinkSkewGuard: a capture stamped far in the future must
// not become the job's track time (one broken AP clock poisons every
// client's dt otherwise); its frames still localize.
func TestCaptureSinkSkewGuard(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	tr := engine.NewTracker(engine.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 1, Config: cfg, Tracker: tr})
	defer eng.Close()
	results := make(chan engine.Result, 1)
	base := time.Unix(1700000000, 0).UTC()
	sink := &engine.CaptureSink{
		Engine:   eng,
		Resolve:  func(apID uint32) *core.AP { return aps[apID-1] },
		Min:      geom.Pt(0, 0),
		Max:      geom.Pt(6, 4),
		OnResult: func(r engine.Result) { results <- r },
		Now:      func() time.Time { return base },
	}
	rng := rand.New(rand.NewSource(43))
	sink.Dispatch(5, []server.Capture{
		{APID: 1, ClientID: 5, Timestamp: base, Streams: mkStreams(rng)},
		{APID: 2, ClientID: 5, Timestamp: base.Add(time.Hour), Streams: mkStreams(rng)},
	})
	r := <-results
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.APs != 2 {
		t.Fatalf("skewed AP's frames dropped: fix from %d APs", r.APs)
	}
	if r.Track == nil || !r.Track.Time.Equal(base) {
		t.Fatalf("track time %v, want the in-range stamp %v", r.Track.Time, base)
	}
	if got := sink.SkewIgnored(); got != 1 {
		t.Fatalf("SkewIgnored = %d, want 1", got)
	}
}
