package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/server"
	"repro/internal/testbed"
)

// testbedRequests builds a deterministic batch of localization
// requests through the simulated office (shared across tests; capture
// synthesis through the channel model is the expensive part).
var (
	fixtureOnce sync.Once
	fixtureTB   *testbed.Testbed
	fixtureReqs []engine.Request
)

func testbedRequests(t *testing.T, n int) (*testbed.Testbed, []engine.Request) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureTB = testbed.New()
		opt := testbed.DefaultThroughputOptions()
		opt.Capture.Antennas = 6
		opt.Capture.Frames = 2
		fixtureReqs = fixtureTB.ThroughputRequests(16, opt)
	})
	if n > len(fixtureReqs) {
		t.Fatalf("fixture holds %d requests, need %d", len(fixtureReqs), n)
	}
	return fixtureTB, fixtureReqs[:n]
}

// TestEngineMatchesSerial is the engine's correctness anchor: a batch
// through the worker pool, each worker recycling its jobs' spectra,
// must produce exactly the fixes the serial loop produces, from the
// same number of APs. (The spectra themselves are pinned == by core's
// TestProcessAPsSharedCorrelationExactOn205Scenes.)
func TestEngineMatchesSerial(t *testing.T) {
	tb, reqs := testbedRequests(t, 8)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25

	serial := make([]engine.Result, len(reqs))
	for i, q := range reqs { // one client at a time
		pos, specs, err := core.LocateClient(q.APs, q.Captures, q.Min, q.Max, cfg)
		serial[i] = engine.Result{ClientID: q.ClientID, Pos: pos, APs: len(specs), Err: err}
	}

	eng := engine.New(engine.Options{Workers: 4, Config: cfg})
	defer eng.Close()
	batch := eng.LocateBatch(reqs)

	if len(batch) != len(serial) {
		t.Fatalf("batch returned %d results for %d requests", len(batch), len(serial))
	}
	for i := range serial {
		s, b := serial[i], batch[i]
		if s.Err != nil || b.Err != nil {
			t.Fatalf("request %d errored: serial=%v batch=%v", i, s.Err, b.Err)
		}
		if b.ClientID != s.ClientID {
			t.Fatalf("request %d: batch result for client %d, want %d", i, b.ClientID, s.ClientID)
		}
		// One arithmetic path on both sides: bit for bit.
		if b.Pos != s.Pos {
			t.Fatalf("request %d: engine pos %v, serial pos %v", i, b.Pos, s.Pos)
		}
		if b.APs != s.APs {
			t.Fatalf("request %d: fix from %d APs, serial from %d", i, b.APs, s.APs)
		}
	}
}

func TestEngineLocateSingle(t *testing.T) {
	tb, reqs := testbedRequests(t, 1)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	eng := engine.New(engine.Options{Workers: 2, Config: cfg})
	defer eng.Close()
	r := eng.Locate(reqs[0])
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.ClientID != reqs[0].ClientID {
		t.Fatalf("result for client %d, want %d", r.ClientID, reqs[0].ClientID)
	}
	st := eng.Stats()
	if st.Fixes != 1 || st.Failures != 0 {
		t.Fatalf("stats %+v, want 1 fix", st)
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	tb, reqs := testbedRequests(t, 1)
	cfg := core.DefaultConfig(tb.Wavelength)
	eng := engine.New(engine.Options{Workers: 1, Config: cfg})
	defer eng.Close()
	bad := engine.Request{ClientID: 9, APs: reqs[0].APs, Captures: make([][]core.FrameCapture, len(reqs[0].APs)), Min: tb.Plan.Min, Max: tb.Plan.Max}
	r := eng.Locate(bad)
	if r.Err == nil {
		t.Fatal("empty captures must fail")
	}
	if st := eng.Stats(); st.Failures != 1 {
		t.Fatalf("stats %+v, want 1 failure", st)
	}
}

func TestEngineSubmitAfterClose(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, Config: core.Config{}})
	eng.Close()
	eng.Close() // idempotent
	if err := eng.Submit(engine.Request{}, func(engine.Result) {}); err != engine.ErrClosed {
		t.Fatalf("Submit after Close = %v, want engine.ErrClosed", err)
	}
	r := eng.Locate(engine.Request{ClientID: 3})
	if r.Err != engine.ErrClosed || r.ClientID != 3 {
		t.Fatalf("Locate after Close = %+v", r)
	}
}

// syntheticSetup builds a cheap two-AP scene with random streams —
// noise-only spectra are fine for concurrency testing, where the point
// is hammering the engine and backend, not localization accuracy.
func syntheticSetup() (aps []*core.AP, cfg core.Config, mkStreams func(rng *rand.Rand) [][]complex128) {
	lambda := 0.1225
	aps = []*core.AP{
		{Array: array.NewLinear(geom.Pt(0, 0), 0, 4, lambda)},
		{Array: array.NewLinear(geom.Pt(6, 0), math.Pi/2, 4, lambda)},
	}
	cfg = core.Config{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      8,
		GridCell:        0.5,
		Steering:        music.NewSteeringCache(0),
	}
	mkStreams = func(rng *rand.Rand) [][]complex128 {
		st := make([][]complex128, 4)
		for k := range st {
			st[k] = make([]complex128, cfg.MaxSamples)
			for i := range st[k] {
				st[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		return st
	}
	return aps, cfg, mkStreams
}

// TestEngineConcurrentStress drives 128 clients from 128 goroutines
// through one engine; run under -race this exercises the worker pool,
// the steering cache's double-checked insert, and the atomics.
func TestEngineConcurrentStress(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	const clients = 128
	eng := engine.New(engine.Options{Workers: 8, Config: cfg})
	defer eng.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			captures := [][]core.FrameCapture{
				{{Streams: mkStreams(rng)}},
				{{Streams: mkStreams(rng)}},
			}
			r := eng.Locate(engine.Request{
				ClientID: uint32(c + 1),
				APs:      aps,
				Captures: captures,
				Min:      geom.Pt(0, 0),
				Max:      geom.Pt(6, 4),
			})
			if r.Err != nil {
				errs <- fmt.Errorf("client %d: %w", c+1, r.Err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := eng.Stats(); st.Fixes != clients {
		t.Fatalf("engine completed %d fixes, want %d", st.Fixes, clients)
	}
}

// TestBackendToEngineStress runs the full ingest path — the
// Backend's quorum grouping into a engine.CaptureSink into the engine — with
// 120 clients ingesting concurrently from 8 simulated AP feeds.
func TestBackendToEngineStress(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	const clients = 120
	eng := engine.New(engine.Options{Workers: 8, Config: cfg})
	defer eng.Close()

	results := make(chan engine.Result, clients)
	sink := &engine.CaptureSink{
		Engine: eng,
		Resolve: func(apID uint32) *core.AP {
			if int(apID) < 1 || int(apID) > len(aps) {
				return nil
			}
			return aps[apID-1]
		},
		Min:      geom.Pt(0, 0),
		Max:      geom.Pt(6, 4),
		OnResult: func(r engine.Result) { results <- r },
	}
	backend := server.NewBackendDispatcher(2, time.Minute, sink)

	now := time.Now()
	var wg sync.WaitGroup
	for ap := uint32(1); ap <= 2; ap++ {
		for feed := 0; feed < 4; feed++ {
			wg.Add(1)
			go func(ap uint32, feed int) {
				defer wg.Done()
				for c := feed; c < clients; c += 4 {
					rng := rand.New(rand.NewSource(int64(c)*10 + int64(ap)))
					backend.IngestBatch([]server.Capture{{
						APID:      ap,
						ClientID:  uint32(c + 1),
						Timestamp: now,
						Streams:   mkStreams(rng),
					}})
				}
			}(ap, feed)
		}
	}
	wg.Wait()

	seen := make(map[uint32]bool)
	for i := 0; i < clients; i++ {
		select {
		case r := <-results:
			if r.Err != nil {
				t.Fatalf("client %d: %v", r.ClientID, r.Err)
			}
			if seen[r.ClientID] {
				t.Fatalf("client %d localized twice", r.ClientID)
			}
			seen[r.ClientID] = true
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out with %d/%d fixes", i, clients)
		}
	}
	if backend.PendingClients() != 0 {
		t.Fatalf("%d clients left pending after full quorum", backend.PendingClients())
	}
}

func TestCaptureSinkUnknownAPs(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, Config: core.Config{}})
	defer eng.Close()
	results := make(chan engine.Result, 1)
	sink := &engine.CaptureSink{
		Engine:   eng,
		Resolve:  func(uint32) *core.AP { return nil },
		OnResult: func(r engine.Result) { results <- r },
	}
	sink.Dispatch(7, []server.Capture{{APID: 1, ClientID: 7}})
	r := <-results
	if r.Err != engine.ErrNoKnownAP || r.ClientID != 7 {
		t.Fatalf("got %+v, want engine.ErrNoKnownAP for client 7", r)
	}
}

func TestCaptureSinkGroupsFramesPerAP(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	eng := engine.New(engine.Options{Workers: 1, Config: cfg})
	defer eng.Close()
	results := make(chan engine.Result, 1)
	sink := &engine.CaptureSink{
		Engine:   eng,
		Resolve:  func(apID uint32) *core.AP { return aps[apID-1] },
		Min:      geom.Pt(0, 0),
		Max:      geom.Pt(6, 4),
		OnResult: func(r engine.Result) { results <- r },
	}
	rng := rand.New(rand.NewSource(5))
	f1, f2, f3 := mkStreams(rng), mkStreams(rng), mkStreams(rng)
	// Two frames from AP 1 interleaved with one from AP 2.
	sink.Dispatch(3, []server.Capture{
		{APID: 1, ClientID: 3, Streams: f1},
		{APID: 2, ClientID: 3, Streams: f2},
		{APID: 1, ClientID: 3, Streams: f3},
	})
	r := <-results
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.APs != 2 {
		t.Fatalf("got %d APs, want 2", r.APs)
	}
	// AP 1 holds frames 1 then 3, AP 2 frame 2: the fix a hand-built
	// request of that grouping gets.
	want := eng.Locate(engine.Request{
		ClientID: 3, APs: aps,
		Captures: [][]core.FrameCapture{{{Streams: f1}, {Streams: f3}}, {{Streams: f2}}},
		Min:      sink.Min, Max: sink.Max,
	})
	if want.Err != nil || r.Pos != want.Pos {
		t.Fatalf("sink fix %v, hand-grouped request %v (err %v)", r.Pos, want.Pos, want.Err)
	}
}

// TestNilConfigResolvesToShared: a config built by hand with the paper's
// stage parameters but no caches, estimator or worker counts is the
// DefaultConfig pipeline, not an older one — nil never selects an
// algorithm. Fixes must be bit-for-bit DefaultConfig's through
// Pipeline.Locate, SynthesizeRegionInterior and the engine, and the
// engine's Config must name the shared caches, now holding its work.
func TestNilConfigResolvesToShared(t *testing.T) {
	tb, reqs := testbedRequests(t, 6)
	def := core.DefaultConfig(tb.Wavelength)
	bare := core.Config{
		Wavelength:         def.Wavelength,
		SmoothingGroups:    def.SmoothingGroups,
		MaxSamples:         def.MaxSamples,
		ForwardBackward:    def.ForwardBackward,
		UseWeighting:       def.UseWeighting,
		UseSuppression:     def.UseSuppression,
		UseSymmetryRemoval: def.UseSymmetryRemoval,
		GridCell:           def.GridCell,
	}
	defPipe, barePipe := core.NewPipeline(def), core.NewPipeline(bare)
	eng := engine.New(engine.Options{Workers: 2, Config: bare})
	defer eng.Close()

	for i, q := range reqs {
		want, specs, err := defPipe.Locate(q.APs, q.Captures, q.Min, q.Max)
		if err != nil {
			t.Fatal(err)
		}
		got, bareSpecs, err := barePipe.Locate(q.APs, q.Captures, q.Min, q.Max)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("request %d: Pipeline.Locate %v under the bare config, %v under DefaultConfig", i, got, want)
		}
		for j := range specs {
			for b, v := range specs[j].Spectrum.P {
				if bareSpecs[j].Spectrum.P[b] != v {
					t.Fatalf("request %d AP %d bin %d: spectra differ", i, j, b)
				}
			}
		}
		region := core.Region{Min: geom.Pt(want.X-1.5, want.Y-1.5), Max: geom.Pt(want.X+1.5, want.Y+1.5)}
		wantR, wantIn, err := defPipe.SynthesizeRegionInterior(specs, q.Min, q.Max, region)
		if err != nil {
			t.Fatal(err)
		}
		gotR, gotIn, err := barePipe.SynthesizeRegionInterior(specs, q.Min, q.Max, region)
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR || gotIn != wantIn {
			t.Fatalf("request %d: SynthesizeRegionInterior (%v, %v) under the bare config, (%v, %v) under DefaultConfig",
				i, gotR, gotIn, wantR, wantIn)
		}
		if r := eng.Locate(q); r.Err != nil || r.Pos != want {
			t.Fatalf("request %d: engine fix %v (err %v) under the bare config, DefaultConfig fix %v", i, r.Pos, r.Err, want)
		}
	}

	cfg := eng.Config()
	if cfg.Steering != music.SharedSteeringCache() || cfg.SynthCache != core.SharedSynthCache() {
		t.Fatal("engine on a nil-cache config does not run on the shared caches")
	}
	if u := cfg.Steering.Usage(); u.Entries == 0 || u.Hits == 0 {
		t.Fatalf("engine on a nil Steering reports no steering cache usage: %+v", u)
	}
	if u := cfg.SynthCache.Usage(); u.Entries == 0 || u.Hits == 0 || u.Bytes == 0 {
		t.Fatalf("engine on a nil SynthCache reports no synthesis cache usage: %+v", u)
	}
}

// TestEngineSteadyStateAllocs gates a warm worker's allocations per
// fix on the walk's shape: a tracked 6-AP × 3-frame request served by
// the predictive region path. Each frame is correlated once inside the
// worker's workspace, and the job's combined spectra go back to it
// after the tracker has the fix, so no spectrum reaches the heap (with
// each of the six escaping, as they once did, a fix cost 23); what is
// left is the job's bookkeeping — the request's trip through the
// scheduler, the spectrum list, the synthesis grids and the track
// update.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb, _ := testbedRequests(t, 1)
	opt := testbed.DefaultThroughputOptions()
	opt.Sites = []int{0, 1, 2, 3, 4, 5}
	req := tb.ThroughputRequests(1, opt)[0]
	eng := engine.New(engine.Options{
		Workers: 1,
		Config:  core.DefaultConfig(tb.Wavelength),
		Tracker: engine.NewTracker(engine.TrackerOptions{}),
		Predict: true,
	})
	defer eng.Close()
	req.Time = time.Unix(1700000000, 0)
	locate := func() {
		req.Time = req.Time.Add(100 * time.Millisecond)
		if r := eng.Locate(req); r.Err != nil || r.APs != 6 {
			t.Fatalf("fix from %d APs, err %v", r.APs, r.Err)
		}
	}
	for i := 0; i < 40; i++ { // a settled track: its region stops changing
		locate()
	}
	allocs := testing.AllocsPerRun(20, locate)
	if st := eng.Stats(); st.Predicted == 0 {
		t.Fatalf("no fix took the predictive path: %+v", st)
	}
	t.Logf("%.1f allocs per tracked 6-AP × 3-frame fix", allocs)
	if limit := 8.0; allocs > limit {
		t.Fatalf("Engine.Locate allocates %.1f per fix, want ≤ %.0f", allocs, limit)
	}
}
