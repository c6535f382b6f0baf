package engine_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// TestEngineRegionMatchesDirect: a region request through the engine
// must produce exactly the fix the pipeline produces directly, and
// the region must actually constrain the result.
func TestEngineRegionMatchesDirect(t *testing.T) {
	tb, reqs := testbedRequests(t, 2)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	cfg.SynthCache = core.NewSynthCache(64 << 20)

	eng := engine.New(engine.Options{Workers: 2, Config: cfg})
	defer eng.Close()

	req := reqs[0]
	req.Region = core.Region{Min: geom.Pt(1, 1), Max: geom.Pt(12, 9)}
	r := eng.Locate(req)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Pos.X < req.Region.Min.X || r.Pos.X > req.Region.Max.X ||
		r.Pos.Y < req.Region.Min.Y || r.Pos.Y > req.Region.Max.Y {
		t.Fatalf("region fix %v escaped box", r.Pos)
	}
	// Engine workers clamp APWorkers and SynthWorkers to 1; the
	// direct reference uses the same effective config.
	direct := cfg
	direct.APWorkers = 1
	direct.SynthWorkers = 1
	pos, _, err := core.NewPipeline(direct).LocateRegion(req.APs, req.Captures, req.Min, req.Max, req.Region)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pos != pos {
		t.Fatalf("engine region fix %v != direct region fix %v", r.Pos, pos)
	}

	// A priority region request must agree too.
	req.Priority = true
	rp := eng.Locate(req)
	if rp.Err != nil {
		t.Fatal(rp.Err)
	}
	if rp.Pos != pos {
		t.Fatalf("priority region fix %v != direct region fix %v", rp.Pos, pos)
	}

	st := eng.Stats()
	if st.PrioritySubmitted != 1 {
		t.Fatalf("PrioritySubmitted = %d, want 1", st.PrioritySubmitted)
	}
	syn := eng.Config().SynthCache.Usage()
	if syn.Budget != 64<<20 {
		t.Fatalf("synth cache Budget = %d, want %d", syn.Budget, int64(64<<20))
	}
	if syn.Bytes <= 0 || syn.Bytes > syn.Budget {
		t.Fatalf("synth cache Bytes = %d outside (0, budget]", syn.Bytes)
	}
	if syn.Misses == 0 {
		t.Fatal("expected synthesis cache misses after first fixes")
	}
}

// TestEngineRejectsBadRegion: malformed regions fail the job with a
// wrapped core.ErrBadRegion and count as failures, not panics.
func TestEngineRejectsBadRegion(t *testing.T) {
	tb, reqs := testbedRequests(t, 1)
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	eng := engine.New(engine.Options{Workers: 1, Config: cfg})
	defer eng.Close()

	req := reqs[0]
	req.Region = core.Region{Min: geom.Pt(9, 9), Max: geom.Pt(2, 2)} // inverted
	r := eng.Locate(req)
	if !errors.Is(r.Err, core.ErrBadRegion) {
		t.Fatalf("inverted region: err = %v, want core.ErrBadRegion", r.Err)
	}
	if st := eng.Stats(); st.Failures != 1 {
		t.Fatalf("stats %+v, want 1 failure", st)
	}
}

// TestEnginePriorityJumpsQueue floods the batch lane of a one-worker
// engine, then submits a single priority job: the worker must pick it
// up ahead of the queued batch backlog.
func TestEnginePriorityJumpsQueue(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	const batch = 48
	eng := engine.New(engine.Options{Workers: 1, Queue: batch + 8, Config: cfg})
	defer eng.Close()

	rng := rand.New(rand.NewSource(11))
	mkReq := func(id uint32, prio bool) engine.Request {
		return engine.Request{
			ClientID: id,
			APs:      aps,
			Captures: [][]core.FrameCapture{
				{{Streams: mkStreams(rng)}},
				{{Streams: mkStreams(rng)}},
			},
			Min:      geom.Pt(0, 0),
			Max:      geom.Pt(6, 4),
			Priority: prio,
		}
	}

	var order []uint32
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(r engine.Result) {
		mu.Lock()
		order = append(order, r.ClientID)
		mu.Unlock()
		wg.Done()
	}
	// Build every request first: synthesizing streams between submits
	// is slower than the worker's fix, and would let it drain the
	// backlog before the priority job is even submitted.
	reqs := make([]engine.Request, 0, batch+1)
	for i := 0; i < batch; i++ {
		reqs = append(reqs, mkReq(uint32(i+1), false))
	}
	reqs = append(reqs, mkReq(1000, true))
	wg.Add(len(reqs))
	for _, q := range reqs {
		if err := eng.Submit(q, record); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	pos := -1
	for i, id := range order {
		if id == 1000 {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("priority job never completed")
	}
	// The worker had at most a few batch jobs in flight before the
	// priority submit landed; anything near the back of the backlog
	// means the lane was ignored.
	if pos > batch/2 {
		t.Fatalf("priority job completed at position %d of %d — batch backlog was not jumped", pos, len(order))
	}
	t.Logf("priority job completed at position %d of %d", pos, len(order))
}

// TestEnginePriorityDrainOnClose: jobs in both lanes complete across
// Close, none lost, none double-delivered.
func TestEnginePriorityDrainOnClose(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	eng := engine.New(engine.Options{Workers: 2, Queue: 64, PriorityQueue: 16, Config: cfg})

	rng := rand.New(rand.NewSource(12))
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		req := engine.Request{
			ClientID: uint32(i + 1),
			APs:      aps,
			Captures: [][]core.FrameCapture{
				{{Streams: mkStreams(rng)}},
				{{Streams: mkStreams(rng)}},
			},
			Min:      geom.Pt(0, 0),
			Max:      geom.Pt(6, 4),
			Priority: i%3 == 0,
		}
		if err := eng.Submit(req, func(engine.Result) { done.Add(1); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close() // drains both lanes
	wg.Wait()
	if n := done.Load(); n != 24 {
		t.Fatalf("%d callbacks after Close, want 24", n)
	}
}

// TestCaptureSinkThreadsRegionAndPriority: a capture's region and
// priority flags ride the flush into the engine request.
func TestCaptureSinkThreadsRegionAndPriority(t *testing.T) {
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
	rng := rand.New(rand.NewSource(13))
	region := core.Region{Min: geom.Pt(1, 1), Max: geom.Pt(3, 3)}
	now := time.Now()
	sink.Dispatch(21, []server.Capture{
		{APID: 1, ClientID: 21, Timestamp: now, Streams: mkStreams(rng)},
		{APID: 2, ClientID: 21, Timestamp: now.Add(time.Millisecond), Streams: mkStreams(rng), Region: region, Priority: true},
	})
	r := <-results
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Pos.X < region.Min.X || r.Pos.X > region.Max.X || r.Pos.Y < region.Min.Y || r.Pos.Y > region.Max.Y {
		t.Fatalf("sink-dispatched region fix %v escaped box", r.Pos)
	}
	if st := eng.Stats(); st.PrioritySubmitted != 1 {
		t.Fatalf("PrioritySubmitted = %d, want 1 (sink did not thread the flag)", st.PrioritySubmitted)
	}
}

// TestCaptureSinkThrottlesPriorityFlag: the wire priority flag is
// untrusted, so back-to-back priority flushes for one client are
// downgraded to the batch lane (still localized, never dropped);
// distinct clients keep their own budgets.
func TestCaptureSinkThrottlesPriorityFlag(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	eng := engine.New(engine.Options{Workers: 1, Config: cfg})
	defer eng.Close()
	results := make(chan engine.Result, 8)
	sink := &engine.CaptureSink{
		Engine:   eng,
		Resolve:  func(apID uint32) *core.AP { return aps[apID-1] },
		Min:      geom.Pt(0, 0),
		Max:      geom.Pt(6, 4),
		OnResult: func(r engine.Result) { results <- r },
	}
	rng := rand.New(rand.NewSource(14))
	flush := func(client uint32) []server.Capture {
		return []server.Capture{
			{APID: 1, ClientID: client, Timestamp: time.Now(), Streams: mkStreams(rng), Priority: true},
			{APID: 2, ClientID: client, Timestamp: time.Now(), Streams: mkStreams(rng)},
		}
	}
	for i := 0; i < 3; i++ { // one grant, two downgrades for client 8
		sink.Dispatch(8, flush(8))
	}
	sink.Dispatch(9, flush(9)) // distinct client: its own grant
	for i := 0; i < 4; i++ {
		if r := <-results; r.Err != nil {
			t.Fatalf("downgraded flush must still localize: %v", r.Err)
		}
	}
	if st := eng.Stats(); st.PrioritySubmitted != 2 || st.Completed != 4 {
		t.Fatalf("stats %+v: want 2 priority grants (one per client) of 4 completed", st)
	}

	// A negative interval disables the throttle for trusted feeds.
	trusted := &engine.CaptureSink{
		Engine:           eng,
		Resolve:          func(apID uint32) *core.AP { return aps[apID-1] },
		Min:              geom.Pt(0, 0),
		Max:              geom.Pt(6, 4),
		OnResult:         func(r engine.Result) { results <- r },
		PriorityInterval: -1,
	}
	trusted.Dispatch(8, flush(8))
	trusted.Dispatch(8, flush(8))
	for i := 0; i < 2; i++ {
		if r := <-results; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := eng.Stats(); st.PrioritySubmitted != 4 {
		t.Fatalf("PrioritySubmitted = %d, want 4 with throttle disabled", st.PrioritySubmitted)
	}
}
