package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

func rmse(errs []float64) float64 {
	var s float64
	for _, e := range errs {
		s += e * e
	}
	return math.Sqrt(s / float64(len(errs)))
}

// TestTrackerSmoothsNoisyFixes: on a constant-velocity walk with
// Gaussian fix noise, the Kalman track must beat the raw fixes in
// RMSE.
func TestTrackerSmoothsNoisyFixes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := engine.NewTracker(engine.TrackerOptions{ProcessNoise: 0.5, MeasSigma: 0.5, Gate: -1})
	base := time.Unix(1700000000, 0)

	var rawErrs, smoothErrs []float64
	for i := 0; i < 60; i++ {
		truth := geom.Pt(2+0.6*float64(i), 5)
		fix := truth.Add(geom.Vec{X: rng.NormFloat64() * 0.4, Y: rng.NormFloat64() * 0.4})
		upd := tr.ObserveFix(7, fix, base.Add(time.Duration(i)*time.Second), false)
		if i < 5 {
			continue // let the filter converge before scoring
		}
		rawErrs = append(rawErrs, fix.Dist(truth))
		smoothErrs = append(smoothErrs, upd.Smoothed.Dist(truth))
	}
	r, s := rmse(rawErrs), rmse(smoothErrs)
	t.Logf("raw RMSE %.3f m, smoothed RMSE %.3f m", r, s)
	if s > r {
		t.Fatalf("smoothed RMSE %.3f worse than raw %.3f", s, r)
	}
	if st := tr.Stats(); st.Observed != 60 || st.Clients != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTrackerGateRejectsOutlier: a catastrophic mirror-image fix must
// be gated out, leaving the track near the truth.
func TestTrackerGateRejectsOutlier(t *testing.T) {
	tr := engine.NewTracker(engine.TrackerOptions{MeasSigma: 0.3, Gate: 4})
	base := time.Unix(1700000000, 0)
	for i := 0; i < 10; i++ {
		tr.ObserveFix(1, geom.Pt(5+0.1*float64(i), 5), base.Add(time.Duration(i)*time.Second), false)
	}
	upd := tr.ObserveFix(1, geom.Pt(35, 14), base.Add(10*time.Second), false) // across the building
	if upd.Accepted {
		t.Fatal("outlier fix should be gate-rejected")
	}
	if upd.Smoothed.Dist(geom.Pt(6, 5)) > 1.5 {
		t.Fatalf("track yanked to %v by outlier", upd.Smoothed)
	}
	if st := tr.Stats(); st.GateRejects != 1 {
		t.Fatalf("GateRejects = %d, want 1", st.GateRejects)
	}
}

// TestTrackerEviction: clients whose last fix is older than TTL are
// removed on later observations.
func TestTrackerEviction(t *testing.T) {
	base := time.Unix(1700000000, 0)
	tr := engine.NewTracker(engine.TrackerOptions{TTL: 30 * time.Second,
		Now: func() time.Time { return base.Add(40 * time.Second) }})
	tr.ObserveFix(1, geom.Pt(1, 1), base, false)
	tr.ObserveFix(2, geom.Pt(2, 2), base.Add(40*time.Second), false)
	st := tr.Stats()
	if st.Clients != 1 || st.Evicted != 1 {
		t.Fatalf("stats after eviction = %+v, want 1 live / 1 evicted", st)
	}
	if _, ok := tr.Snapshot(1); ok {
		t.Fatal("client 1 should be evicted")
	}
	if _, ok := tr.Snapshot(2); !ok {
		t.Fatal("client 2 should be live")
	}
}

// TestTrackerStaleClientRestartsFresh: a client reappearing after
// more than TTL of silence must get a brand-new track — not a
// constant-velocity extrapolation across the gap — and must remain in
// the live-client map after the observation (regression: the eviction
// sweep used to delete the in-flight client while its stale filter
// absorbed the fix).
func TestTrackerStaleClientRestartsFresh(t *testing.T) {
	base := time.Unix(1700000000, 0)
	tr := engine.NewTracker(engine.TrackerOptions{TTL: 30 * time.Second, Gate: -1})
	// Establish a track moving briskly east.
	for i := 0; i < 5; i++ {
		tr.ObserveFix(1, geom.Pt(5+float64(i), 5), base.Add(time.Duration(i)*time.Second), false)
	}
	// Long silence, then the client reappears elsewhere.
	upd := tr.ObserveFix(1, geom.Pt(20, 10), base.Add(2*time.Minute), false)
	if upd.Smoothed != geom.Pt(20, 10) {
		t.Fatalf("stale track must restart at the fix, got %v", upd.Smoothed)
	}
	if upd.Vel != (geom.Vec{}) {
		t.Fatalf("restarted track must have zero velocity, got %v", upd.Vel)
	}
	st := tr.Stats()
	if st.Clients != 1 {
		t.Fatalf("client must remain tracked after restart, Clients=%d", st.Clients)
	}
	if st.Evicted != 1 {
		t.Fatalf("stale restart must count as an eviction, Evicted=%d", st.Evicted)
	}
	// And the restarted track keeps working.
	upd = tr.ObserveFix(1, geom.Pt(20.5, 10), base.Add(2*time.Minute+time.Second), false)
	if !upd.Accepted || upd.Smoothed.Dist(geom.Pt(20.25, 10)) > 0.3 {
		t.Fatalf("restarted track misbehaves: %+v", upd)
	}
}

// TestTrackerSnapshotReportsRealState (regression): Snapshot used to
// hardcode Accepted: true and skip the TTL check, so the introspection
// path reported a gate-rejected track as healthy and a stale track —
// one ObserveFix would restart and Predict already refused — as live.
func TestTrackerSnapshotReportsRealState(t *testing.T) {
	base := time.Unix(1700000000, 0)
	now := base
	tr := engine.NewTracker(engine.TrackerOptions{MeasSigma: 0.3, Gate: 4,
		TTL: 30 * time.Second, Now: func() time.Time { return now }})
	for i := 0; i < 10; i++ {
		tr.ObserveFix(1, geom.Pt(5+0.1*float64(i), 5), base.Add(time.Duration(i)*time.Second), false)
	}
	now = base.Add(9 * time.Second)
	snap, ok := tr.Snapshot(1)
	if !ok || !snap.Accepted {
		t.Fatalf("healthy track snapshot = %+v, %v; want live and accepted", snap, ok)
	}

	// A gate-rejected last fix must show up as Accepted: false.
	now = base.Add(10 * time.Second)
	if upd := tr.ObserveFix(1, geom.Pt(35, 14), now, false); upd.Accepted {
		t.Fatal("outlier fix should be gate-rejected")
	}
	snap, ok = tr.Snapshot(1)
	if !ok {
		t.Fatal("gated track must still be live")
	}
	if snap.Accepted {
		t.Fatal("Snapshot reported Accepted for a gate-rejected last fix")
	}

	// Past TTL the track is stale: Predict refuses it, so Snapshot must
	// too instead of presenting a track ObserveFix would restart.
	now = base.Add(2 * time.Minute)
	if _, ok := tr.Snapshot(1); ok {
		t.Fatal("TTL-stale track still visible via Snapshot")
	}
}

// TestTrackerOutOfOrderFix: a fix older than the track's last
// timestamp must fold in with dt=0 instead of erroring or rewinding.
func TestTrackerOutOfOrderFix(t *testing.T) {
	base := time.Unix(1700000000, 0)
	tr := engine.NewTracker(engine.TrackerOptions{Gate: -1,
		Now: func() time.Time { return base.Add(10 * time.Second) }})
	tr.ObserveFix(1, geom.Pt(5, 5), base.Add(10*time.Second), false)
	upd := tr.ObserveFix(1, geom.Pt(5.1, 5), base.Add(5*time.Second), false)
	if !upd.Accepted {
		t.Fatal("out-of-order fix should still be folded in")
	}
	if snap, _ := tr.Snapshot(1); !snap.Time.Equal(base.Add(10 * time.Second)) {
		t.Fatalf("track time rewound to %v", snap.Time)
	}
}

// TestTrackerSubscribe: updates stream to subscribers, slow consumers
// drop rather than block, and cancel is idempotent.
func TestTrackerSubscribe(t *testing.T) {
	tr := engine.NewTracker(engine.TrackerOptions{})
	ch, cancel := tr.Subscribe(2)
	base := time.Unix(1700000000, 0)
	for i := 0; i < 5; i++ { // more than the buffer holds
		tr.ObserveFix(9, geom.Pt(float64(i), 0), base.Add(time.Duration(i)*time.Second), false)
	}
	upd := <-ch
	if upd.ClientID != 9 || upd.Raw != geom.Pt(0, 0) {
		t.Fatalf("first update = %+v", upd)
	}
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		// one buffered update may remain; drain until close
		for range ch {
		}
	}
	tr.ObserveFix(9, geom.Pt(9, 9), base.Add(time.Minute), false) // must not panic on closed sub
}

// TestEngineTrackerIndependentConcurrentClients is the engine-level
// race test: many clients submitting concurrently must each get an
// independent track that converges on their own (stationary) position,
// with no cross-talk. Run under -race in CI.
func TestEngineTrackerIndependentConcurrentClients(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	tr := engine.NewTracker(engine.TrackerOptions{MeasSigma: 0.5, Gate: -1})
	eng := engine.New(engine.Options{Workers: 8, Config: cfg, Tracker: tr})
	defer eng.Close()

	sub, cancelSub := tr.Subscribe(1024)
	defer cancelSub()

	const clients = 16
	const steps = 4
	base := time.Unix(1700000000, 0)

	firstFix := make([]geom.Point, clients)
	lastTrack := make([]geom.Point, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Identical captures per step → a stationary, per-client
			// deterministic fix the track must converge to.
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			captures := [][]core.FrameCapture{
				{{Streams: mkStreams(rng)}},
				{{Streams: mkStreams(rng)}},
			}
			for s := 0; s < steps; s++ {
				r := eng.Locate(engine.Request{
					ClientID: uint32(c + 1),
					APs:      aps,
					Captures: captures,
					Min:      geom.Pt(0, 0),
					Max:      geom.Pt(6, 4),
					Time:     base.Add(time.Duration(s) * time.Second),
				})
				if r.Err != nil {
					errs <- fmt.Errorf("client %d step %d: %w", c+1, s, r.Err)
					return
				}
				if r.Track == nil {
					errs <- fmt.Errorf("client %d step %d: no track update", c+1, s)
					return
				}
				if r.Track.ClientID != uint32(c+1) {
					errs <- fmt.Errorf("client %d got track for client %d", c+1, r.Track.ClientID)
					return
				}
				if s == 0 {
					firstFix[c] = r.Pos
				} else if r.Pos != firstFix[c] {
					errs <- fmt.Errorf("client %d: fix moved between identical captures", c+1)
					return
				}
				lastTrack[c] = r.Track.Smoothed
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for c := 0; c < clients; c++ {
		if d := lastTrack[c].Dist(firstFix[c]); d > 0.3 {
			t.Errorf("client %d: track %v drifted %.2f m from its stationary fix %v — cross-talk?",
				c+1, lastTrack[c], d, firstFix[c])
		}
	}

	st := eng.Stats()
	if st.TrackedClients != clients {
		t.Fatalf("TrackedClients = %d, want %d", st.TrackedClients, clients)
	}
	if st.Submitted != clients*steps || st.Completed != clients*steps || st.Fixes != clients*steps {
		t.Fatalf("counters: %+v", st)
	}
	if ts := tr.Stats(); ts.Observed != clients*steps {
		t.Fatalf("tracker observed %d, want %d", ts.Observed, clients*steps)
	}

	// The subscription must have streamed every update.
	cancelSub()
	got := 0
	for range sub {
		got++
	}
	if got != clients*steps {
		t.Fatalf("subscription delivered %d updates, want %d", got, clients*steps)
	}
}
