package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
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
	base := time.Unix(1700000000, 0)
	tr := engine.NewTracker(engine.TrackerOptions{ProcessNoise: 0.5, MeasSigma: 0.5, Gate: -1,
		Now: func() time.Time { return base.Add(59 * time.Second) }})

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
// removed on later observations, and no reader lists them before that.
// A negative TTL turns eviction off and reads back as 0, as SetTTL(-1)
// does.
func TestTrackerEviction(t *testing.T) {
	base := time.Unix(1700000000, 0)
	for _, tc := range []struct {
		ttl, readback   time.Duration
		live, evicted   int
		client1Survives bool
	}{
		{30 * time.Second, 30 * time.Second, 1, 1, false},
		{-1, 0, 2, 0, true},
	} {
		tr := engine.NewTracker(engine.TrackerOptions{TTL: tc.ttl,
			Now: func() time.Time { return base.Add(40 * time.Second) }})
		if got := tr.TTL(); got != tc.readback {
			t.Fatalf("TTL %v reads back as %v, want %v", tc.ttl, got, tc.readback)
		}
		tr.ObserveFix(1, geom.Pt(1, 1), base, false)
		tr.ObserveFix(2, geom.Pt(2, 2), base.Add(40*time.Second), false)
		st := tr.Stats()
		if st.Clients != tc.live || st.Evicted != uint64(tc.evicted) {
			t.Fatalf("TTL %v: stats after eviction = %+v, want %d live / %d evicted", tc.ttl, st, tc.live, tc.evicted)
		}
		if _, ok := tr.Snapshot(1); ok != tc.client1Survives {
			t.Fatalf("TTL %v: client 1 live = %v, want %v", tc.ttl, ok, tc.client1Survives)
		}
		if _, ok := tr.Snapshot(2); !ok {
			t.Fatalf("TTL %v: client 2 should be live", tc.ttl)
		}
	}

	// Once fixes stop nothing sweeps, yet a track past TTL is gone to
	// every reader: Clients and Stats agree with Snapshot and
	// SnapshotAll, so /clients never lists an ID /clients/{id} refuses.
	now := base
	tr := engine.NewTracker(engine.TrackerOptions{TTL: 30 * time.Second,
		Now: func() time.Time { return now }})
	tr.ObserveFix(1, geom.Pt(1, 1), base, false)
	if ids, st := tr.Clients(), tr.Stats(); len(ids) != 1 || st.Clients != 1 {
		t.Fatalf("fresh track: Clients() = %v, Stats().Clients = %d, want [1] and 1", ids, st.Clients)
	}
	now = base.Add(31 * time.Second)
	if _, ok := tr.Snapshot(1); ok {
		t.Fatal("client 1 past TTL still has a snapshot")
	}
	if snaps := tr.SnapshotAll(); len(snaps) != 0 {
		t.Fatalf("SnapshotAll past TTL = %+v, want none", snaps)
	}
	if ids := tr.Clients(); len(ids) != 0 {
		t.Fatalf("Clients() past TTL = %v, want none", ids)
	}
	if st := tr.Stats(); st.Clients != 0 || st.Evicted != 0 {
		t.Fatalf("Stats past TTL = %+v, want 0 live and 0 evicted (nothing swept)", st)
	}
	// A fix after the gap restarts the track and lists it again.
	tr.ObserveFix(1, geom.Pt(2, 2), now, false)
	if ids, st := tr.Clients(), tr.Stats(); len(ids) != 1 || st.Clients != 1 || st.Evicted != 1 {
		t.Fatalf("refixed track: Clients() = %v, Stats = %+v, want [1], 1 live, 1 evicted", ids, st)
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
	tr := engine.NewTracker(engine.TrackerOptions{TTL: 30 * time.Second, Gate: -1,
		Now: func() time.Time { return base.Add(2*time.Minute + time.Second) }})
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

// TestEngineTrackerIndependentConcurrentClients is the engine-level
// race test: many clients submitting concurrently must each get an
// independent track that converges on their own (stationary) position,
// with no cross-talk. Run under -race in CI.
func TestEngineTrackerIndependentConcurrentClients(t *testing.T) {
	const clients = 16
	const steps = 4
	base := time.Unix(1700000000, 0)

	aps, cfg, mkStreams := syntheticSetup()
	tr := engine.NewTracker(engine.TrackerOptions{MeasSigma: 0.5, Gate: -1,
		Now: func() time.Time { return base.Add((steps - 1) * time.Second) }})
	eng := engine.New(engine.Options{Workers: 8, Config: cfg, Tracker: tr})
	defer eng.Close()

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
}

// TestTrackerConcurrentSweepKeepsEveryFix: a sweep never evicts a
// track while a fix is being folded in. Writers fix their own clients
// on a shared fake clock, each client refixed about every TTL, so
// sweeps (every TTL/4) and stale restarts fire throughout, while
// readers predict, snapshot, restore and remove. Each writer checks
// that the track it just folded a fix into is still there (the old
// two-lock tracker, changed to release the map lock before taking the
// client's lock, failed 8 of 100 -race runs of this test). Afterwards
// every fix is counted, the live-client count agrees with the client
// list, and every client fixed within TTL of the final clock is live.
func TestTrackerConcurrentSweepKeepsEveryFix(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var clock atomic.Int64 // fake nanoseconds past base
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
	const ttl = 40 * time.Millisecond
	tr := engine.NewTracker(engine.TrackerOptions{Gate: -1, TTL: ttl, Now: now})

	const writers, perWriter, fixes = 4, 9, 300
	lastAt := make([]time.Time, writers*perWriter+1) // by client ID
	var writing sync.WaitGroup
	for w := range writers {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := range fixes {
				id := uint32(w*perWriter + i%perWriter + 1)
				at := base.Add(time.Duration(clock.Add(int64(time.Millisecond))))
				tr.ObserveFix(id, geom.Pt(float64(id), float64(i)), at, false)
				lastAt[id] = at
				// Only a sweep at a clock past at+ttl may drop the
				// track just folded in, and every sweep runs at a
				// clock no later than the one read after the check.
				if _, ok := tr.Predict(id, at, 0); !ok && now().Sub(at) <= ttl {
					t.Errorf("client %d: the fix folded in at %v was swept away", id, at.Sub(base))
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var reading sync.WaitGroup
	reader := func(seed int64, f func(rng *rand.Rand, id uint32) error) {
		reading.Add(1)
		go func() {
			defer reading.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := f(rng, uint32(rng.Intn(writers*perWriter)+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reader(1, func(_ *rand.Rand, id uint32) error {
		tr.Predict(id, time.Time{}, 2)
		tr.Snapshot(id)
		return nil
	})
	reader(2, func(rng *rand.Rand, id uint32) error {
		other := uint32(rng.Intn(writers*perWriter) + 1)
		snaps := tr.SnapshotClients([]uint32{id, other, id})
		for i := 1; i < len(snaps); i++ {
			if snaps[i-1].ClientID >= snaps[i].ClientID {
				return fmt.Errorf("SnapshotClients(%d, %d, %d) not sorted and distinct: %+v", id, other, id, snaps)
			}
		}
		return nil
	})
	// Restore and Remove work on a copy under an ID no writer fixes, so
	// they exercise the lock without erasing a writer's client. A sweep
	// may evict the copy between the two.
	reader(3, func(_ *rand.Rand, id uint32) error {
		snaps := tr.SnapshotClients([]uint32{id})
		for i := range snaps {
			snaps[i].ClientID += 1000
		}
		if n := tr.Restore(snaps); n != len(snaps) {
			return fmt.Errorf("restored %d of %d snapshots", n, len(snaps))
		}
		if n := tr.Remove([]uint32{id + 1000}); n > len(snaps) {
			return fmt.Errorf("removed %d copies, restored %d", n, len(snaps))
		}
		return nil
	})
	writing.Wait()
	close(done)
	reading.Wait()

	st := tr.Stats()
	if st.Observed != writers*fixes {
		t.Fatalf("Observed = %d, want %d", st.Observed, writers*fixes)
	}
	if st.Evicted == 0 {
		t.Fatal("no track was evicted: the clock never made a sweep fire")
	}
	if ids := tr.Clients(); st.Clients != len(ids) {
		t.Fatalf("Stats().Clients = %d, Clients() lists %d", st.Clients, len(ids))
	}
	final := now()
	for id := 1; id < len(lastAt); id++ {
		if final.Sub(lastAt[id]) > ttl {
			continue
		}
		if _, ok := tr.Snapshot(uint32(id)); !ok {
			t.Errorf("client %d fixed %v before the final clock has no live track", id, final.Sub(lastAt[id]))
		}
	}
}
