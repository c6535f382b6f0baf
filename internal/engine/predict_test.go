package engine_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestEnginePredictiveEndToEnd drives the full predictive loop on
// real testbed captures: the same stationary client is fixed
// repeatedly, the first fixes build the track (full-grid, no-track
// fallbacks), and once the track matures the engine serves verified
// track-guided region fixes that agree with full-grid serving.
func TestEnginePredictiveEndToEnd(t *testing.T) {
	tb, reqs := testbedRequests(t, 1)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	cfg.SynthCache = core.NewSynthCache(64 << 20)

	tracker := engine.NewTracker(engine.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 2, Config: cfg, Tracker: tracker, Predict: true})
	defer eng.Close()

	base := time.Unix(1700000000, 0)
	req := reqs[0]
	const steps = 6
	var fullPos geom.Point
	for i := 0; i < steps; i++ {
		req.Time = base.Add(time.Duration(i) * time.Second)
		r := eng.Locate(req)
		if r.Err != nil {
			t.Fatalf("step %d: %v", i, r.Err)
		}
		if i == 0 {
			fullPos = r.Pos // the full-grid fix for these captures
		}
		// Identical captures yield identical fixes, so the track is
		// stationary at fullPos; once mature, fixes go predictive.
		if i < engine.DefaultPredictMinFixes && r.Predicted {
			t.Fatalf("step %d predicted before the track matured", i)
		}
		if i >= engine.DefaultPredictMinFixes {
			if !r.Predicted {
				t.Fatalf("step %d: mature stationary track was not served predictively", i)
			}
			if r.Pos.Dist(fullPos) > 0.05 {
				t.Fatalf("step %d: predictive fix %v drifted from full-grid fix %v", i, r.Pos, fullPos)
			}
		}
	}
	st := eng.Stats()
	wantPred := uint64(steps - engine.DefaultPredictMinFixes)
	if st.Predicted != wantPred {
		t.Fatalf("Predicted = %d, want %d", st.Predicted, wantPred)
	}
	if st.PredictFallbackNoTrack != engine.DefaultPredictMinFixes {
		t.Fatalf("PredictFallbackNoTrack = %d, want %d", st.PredictFallbackNoTrack, engine.DefaultPredictMinFixes)
	}
	if st.PredictFallbackGate+st.PredictFallbackBorder+st.PredictFallbackError != 0 {
		t.Fatalf("stationary client fell back unexpectedly: %+v", st)
	}
}

// TestEnginePredictiveTeleportFallsBack: after the track matures, the
// client's captures jump across the floor (a mirror-ambiguity-scale
// event). The predictive region no longer contains the peak, so the
// engine must fall back (border) and serve the full-grid fix — the
// "never worse than full-grid" guarantee under track breakage.
func TestEnginePredictiveTeleportFallsBack(t *testing.T) {
	tb, reqs := testbedRequests(t, 8)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	cfg.SynthCache = core.NewSynthCache(64 << 20)

	tracker := engine.NewTracker(engine.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 2, Config: cfg, Tracker: tracker, Predict: true})
	defer eng.Close()

	base := time.Unix(1700000000, 0)
	near := reqs[0]
	// Pick the fixture request whose fix lies farthest from near's, so
	// the teleport certainly leaves the predicted gate box.
	ref := eng.Locate(near)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	far := reqs[1]
	bestDist := 0.0
	for _, cand := range reqs[1:] {
		r := eng.Locate(cand)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if d := r.Pos.Dist(ref.Pos); d > bestDist {
			bestDist, far = d, cand
		}
	}
	if bestDist < 5 {
		t.Skipf("fixture clients too clustered (max spread %.1fm)", bestDist)
	}

	// Mature the track at near's position.
	for i := 0; i < 4; i++ {
		q := near
		q.Time = base.Add(time.Duration(i) * time.Second)
		if r := eng.Locate(q); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	before := eng.Stats()

	// Teleport: same client ID, far captures.
	q := far
	q.ClientID = near.ClientID
	q.Time = base.Add(5 * time.Second)
	r := eng.Locate(q)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Predicted {
		t.Fatal("teleported fix was served from the stale predictive region")
	}
	// The served fix is the full-grid one for the far captures.
	direct := cfg
	direct.APWorkers = 1
	direct.SynthWorkers = 1
	wantPos, _, err := core.LocateClient(far.APs, far.Captures, far.Min, far.Max, direct)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pos != wantPos {
		t.Fatalf("fallback fix %v != full-grid fix %v", r.Pos, wantPos)
	}
	after := eng.Stats()
	if after.PredictFallbackBorder+after.PredictFallbackGate == before.PredictFallbackBorder+before.PredictFallbackGate {
		t.Fatalf("teleport did not trip the predictive verification: %+v", after)
	}
}

// TestEngineClientQuota: with a scheduler quota configured, a client
// flooding submissions gets ErrQuota refusals while other clients are
// admitted; completions release tokens.
func TestEngineClientQuota(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	eng := engine.New(engine.Options{Workers: 1, Queue: 64, ClientQuota: 2, Config: cfg})
	defer eng.Close()

	rngReq := func(id uint32) engine.Request {
		return engine.Request{
			ClientID: id,
			APs:      aps,
			Captures: [][]core.FrameCapture{
				{{Streams: mkStreams(randSource(int64(id)))}},
				{{Streams: mkStreams(randSource(int64(id) + 1))}},
			},
			Min: geom.Pt(0, 0),
			Max: geom.Pt(6, 4),
		}
	}

	// Hold the single worker so queued tokens cannot drain.
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	if err := eng.Submit(rngReq(50), func(engine.Result) { <-block; wg.Done() }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker pick it up

	done := func(engine.Result) {}
	if err := eng.Submit(rngReq(7), done); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(rngReq(7), done); err != nil {
		// The worker is blocked, so client 50's token plus these are held.
		t.Fatal(err)
	}
	if err := eng.Submit(rngReq(7), done); !errors.Is(err, engine.ErrQuota) {
		t.Fatalf("third queued job for one client = %v, want ErrQuota", err)
	}
	if err := eng.Submit(rngReq(8), done); err != nil {
		t.Fatalf("other client refused: %v", err)
	}
	st := eng.Stats()
	if st.QuotaRejected != 1 || st.Rejected != 1 {
		t.Fatalf("stats %+v, want 1 quota rejection", st)
	}
	close(block)
	wg.Wait()
}

// TestEngineFairnessUnderPriorityFlood: hostile clients submit as
// fast as they can — far past their share — to a single-worker engine
// while two well-behaved clients submit a few jobs each. ClientQuota
// holds every hostile client to its tokens, so the queue is FIFO past
// at most hostiles × quota of the flood's jobs: every well-behaved job
// completes, in submission order, behind no more than that. Runs under
// -race in the normal test pass.
func TestEngineFairnessUnderPriorityFlood(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	const (
		hostiles  = 3
		quota     = 4
		perClient = 3
	)
	eng := engine.New(engine.Options{Workers: 1, Queue: 32, ClientQuota: quota, Config: cfg})
	defer eng.Close()

	var mu sync.Mutex
	var order []uint32
	record := func(r engine.Result) {
		mu.Lock()
		order = append(order, r.ClientID)
		mu.Unlock()
	}

	// Plug the single worker: its done callback blocks until the queue
	// is loaded, so nothing completes while the clients submit.
	release := make(chan struct{})
	var plugDone sync.WaitGroup
	plugDone.Add(1)
	if err := eng.Submit(mkReq2(aps, mkStreams, 3), func(r engine.Result) {
		record(r)
		<-release
		plugDone.Done()
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); eng.Stats().Queued != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the plug job")
		}
		time.Sleep(time.Millisecond)
	}

	// Hostile clients 990–992 submit without pause, retrying every
	// quota refusal.
	stop := make(chan struct{})
	var flood sync.WaitGroup
	var overQuota atomic.Bool
	for h := uint32(990); h < 990+hostiles; h++ {
		flood.Add(1)
		go func(h uint32) {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := eng.Submit(mkReq2(aps, mkStreams, h), record)
				if n := eng.InFlight(h); n > quota {
					overQuota.Store(true)
				}
				if errors.Is(err, engine.ErrQuota) {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				if err != nil {
					return
				}
			}
		}(h)
	}
	for h := uint32(990); h < 990+hostiles; h++ {
		for deadline := time.Now().Add(5 * time.Second); eng.InFlight(h) < quota; {
			if time.Now().After(deadline) {
				t.Fatalf("hostile client %d never filled its quota", h)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var want []uint32
	results := make(chan error, 2*perClient)
	for i := 0; i < perClient; i++ {
		for _, id := range []uint32{1, 2} {
			want = append(want, id)
			if err := eng.Submit(mkReq2(aps, mkStreams, id), func(r engine.Result) {
				record(r)
				results <- r.Err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(release)

	deadline := time.After(30 * time.Second)
	for n := 0; n < 2*perClient; n++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			close(stop)
			t.Fatalf("starved: %d/%d well-behaved jobs finished under the flood", n, 2*perClient)
		}
	}
	close(stop)
	flood.Wait()
	plugDone.Wait()

	mu.Lock()
	defer mu.Unlock()
	var good []uint32
	hostileAhead := 0
	for _, id := range order[1:] { // order[0] is the plug
		if id >= 990 {
			if len(good) < len(want) {
				hostileAhead++
			}
			continue
		}
		good = append(good, id)
	}
	if !slices.Equal(good, want) {
		t.Fatalf("well-behaved completion order %v, want submission order %v", good, want)
	}
	if hostileAhead > hostiles*quota {
		t.Fatalf("%d flood jobs completed ahead of the last well-behaved job, quota allows %d", hostileAhead, hostiles*quota)
	}
	if overQuota.Load() {
		t.Fatal("a hostile client held more than its quota of jobs")
	}
	st := eng.Stats()
	if st.QuotaRejected == 0 {
		t.Fatalf("the flood never hit its quota: %+v", st)
	}
	t.Logf("flood: %d jobs ahead of the last well-behaved one, %d quota refusals", hostileAhead, st.QuotaRejected)
}

// TestEngineYieldStealsMidSurface: a job in flight is never
// interrupted, and one worker completes a backlog in FIFO order. With
// the single worker plugged by a job whose done callback blocks, a
// backlog is queued; the completion order must be exactly the plug,
// then the backlog in submission order, and the plug's fix must be the
// one the same request gets alone.
func TestEngineYieldStealsMidSurface(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	const backlog = 4
	eng := engine.New(engine.Options{Workers: 1, Config: cfg})
	defer eng.Close()

	var order []uint32
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(r engine.Result) {
		if r.Err != nil {
			t.Error(r.Err)
		}
		mu.Lock()
		order = append(order, r.ClientID)
		mu.Unlock()
		wg.Done()
	}
	release := make(chan struct{})
	var plug engine.Result
	wg.Add(backlog + 1)
	if err := eng.Submit(mkReq2(aps, mkStreams, 100), func(r engine.Result) {
		plug = r
		record(r)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); eng.Stats().Queued != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the plug job")
		}
		time.Sleep(100 * time.Microsecond)
	}
	want := []uint32{100}
	for id := uint32(1); id <= backlog; id++ {
		if err := eng.Submit(mkReq2(aps, mkStreams, id), record); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v: the plug, then the backlog in FIFO order", order, want)
	}
	if alone := eng.Locate(mkReq2(aps, mkStreams, 100)); alone.Err != nil || alone.Pos != plug.Pos {
		t.Fatalf("plug fixed at %v, the same request alone at %v (err %v)", plug.Pos, alone.Pos, alone.Err)
	}
}

// mkReq2 builds a two-AP synthetic request whose streams are seeded by
// id (helper for the queue-order tests).
func mkReq2(aps []*core.AP, mkStreams func(*rand.Rand) [][]complex128, id uint32) engine.Request {
	return engine.Request{
		ClientID: id,
		APs:      aps,
		Captures: [][]core.FrameCapture{
			{{Streams: mkStreams(randSource(int64(id)))}},
			{{Streams: mkStreams(randSource(int64(id) + 7))}},
		},
		Min: geom.Pt(0, 0),
		Max: geom.Pt(6, 4),
	}
}
