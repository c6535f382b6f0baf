package engine_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// TestCaptureSinkDiscardsUnknownAPProvenance (regression): Dispatch
// used to harvest timestamps from every capture in a flush *before*
// resolving APs, so a record from an unknown AP — dropped from the
// localization itself — could still advance the Kalman track with a
// bogus timestamp. Discarded records must carry no influence at all.
func TestCaptureSinkDiscardsUnknownAPProvenance(t *testing.T) {
	aps, cfg, mkStreams := syntheticSetup()
	tr := engine.NewTracker(engine.TrackerOptions{Gate: -1})
	eng := engine.New(engine.Options{Workers: 1, Config: cfg, Tracker: tr})
	defer eng.Close()
	results := make(chan engine.Result, 1)
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

	rng := rand.New(rand.NewSource(15))
	s1, s2 := mkStreams(rng), mkStreams(rng)
	now := time.Now()
	sink.Dispatch(31, []server.Capture{
		{APID: 1, ClientID: 31, Timestamp: now, Streams: s1},
		// Unknown AP 99: its frames and a timestamp an hour in the
		// future must be ignored.
		{APID: 99, ClientID: 31, Timestamp: now.Add(time.Hour), Streams: mkStreams(rng)},
		{APID: 2, ClientID: 31, Timestamp: now.Add(time.Millisecond), Streams: s2},
	})
	r := <-results
	if r.Err != nil {
		t.Fatal(r.Err)
	}

	// The fix must equal the full-grid result over the two known APs.
	direct := eng.Locate(engine.Request{
		ClientID: 32,
		APs:      aps,
		Captures: [][]core.FrameCapture{{{Streams: s1}}, {{Streams: s2}}},
		Min:      geom.Pt(0, 0),
		Max:      geom.Pt(6, 4),
	})
	if direct.Err != nil {
		t.Fatal(direct.Err)
	}
	if r.Pos != direct.Pos {
		t.Fatalf("sink fix %v != full-grid fix %v — unknown AP's frames leaked into the job", r.Pos, direct.Pos)
	}

	// The track must carry the newest *resolved* timestamp, not the
	// bogus future one.
	snap, ok := tr.Snapshot(31)
	if !ok {
		t.Fatal("client 31 not tracked after dispatch")
	}
	if !snap.Time.Equal(now.Add(time.Millisecond)) {
		t.Fatalf("track time %v, want %v — unknown AP's timestamp poisoned the track",
			snap.Time, now.Add(time.Millisecond))
	}
}

// TestShortCaptureRefusedEndToEnd sends one transmission through a real
// Backend (stream decode into pooled workspaces) and CaptureSink with
// every stream one sample short of the configured window, then one
// sample long. Each job must fail with core.ErrShortCapture — counted,
// no fix, no track update, nothing read from another offset — and the
// pooled captures go back exactly once. The transmission at exactly the
// window is the control: it fixes, and equals the fix on the unquantized
// windows.
func TestShortCaptureRefusedEndToEnd(t *testing.T) {
	tb, reqs := testbedRequests(t, 1)
	req := reqs[0]
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25
	window := cfg.MaxSamples

	tr := engine.NewTracker(engine.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 1, Config: cfg, Tracker: tr})
	defer eng.Close()
	results := make(chan engine.Result, 1)
	sink := &engine.CaptureSink{
		Engine:   eng,
		Resolve:  func(apID uint32) *core.AP { return req.APs[apID-1] },
		Min:      req.Min,
		Max:      req.Max,
		OnResult: func(r engine.Result) { results <- r },
	}
	backend := server.NewBackendDispatcher(len(req.APs), time.Minute, sink)
	leased := server.LeasedIngestWorkspaces()

	// send ships the transmission as one v3 frame, every stream cut or
	// zero-padded to n samples, and returns the job's result.
	send := func(clientID uint32, n int) engine.Result {
		t.Helper()
		var caps []server.Capture
		for i, frames := range req.Captures {
			for _, f := range frames {
				streams := make([][]complex128, len(f.Streams))
				for k, st := range f.Streams {
					streams[k] = append(append([]complex128(nil), st...), 0)[:n]
				}
				caps = append(caps, server.Capture{APID: uint32(i + 1), ClientID: clientID, Timestamp: time.Now(), Streams: streams})
			}
		}
		frame, err := server.AppendBatch(nil, caps)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.ServeConn(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-results:
			return r
		case <-time.After(30 * time.Second):
			t.Fatal("no result for the flushed transmission")
			return engine.Result{}
		}
	}

	for i, n := range []int{window - 1, window + 1} {
		bad := send(uint32(1+i), n)
		if !errors.Is(bad.Err, core.ErrShortCapture) {
			t.Fatalf("capture of %d samples under a %d-sample window: err = %v, want core.ErrShortCapture", n, window, bad.Err)
		}
		if bad.Track != nil || bad.APs != 0 || bad.Pos != (geom.Point{}) {
			t.Fatalf("refused job still carries a fix: %+v", bad)
		}
	}
	exact := send(3, window)
	if exact.Err != nil {
		t.Fatalf("capture of exactly %d samples: %v", window, exact.Err)
	}
	// (int16 quantization on the wire moves a fix by far less than 1 mm.)
	if raw := eng.Locate(req); raw.Err != nil || raw.Pos.Dist(exact.Pos) > 1e-3 {
		t.Fatalf("fix on the wire's %d-sample capture %v, on the unquantized one %v (err %v)", window, exact.Pos, raw.Pos, raw.Err)
	}

	eng.Close() // the sink releases after OnResult, on the worker: wait for it
	if st := eng.Stats(); st.ShortCaptures != 2 || st.Failures != 2 || st.Fixes != 2 {
		t.Fatalf("short_captures=%d failures=%d fixes=%d, want 2, 2, 2", st.ShortCaptures, st.Failures, st.Fixes)
	}
	if st := tr.Stats(); st.Observed != 2 {
		t.Fatalf("tracker observed %d fixes, want 2 (the refused jobs must not reach it)", st.Observed)
	}
	if got := server.LeasedIngestWorkspaces(); got != leased {
		t.Fatalf("leased ingest workspaces %d, started at %d", got, leased)
	}
	if backend.PendingClients() != 0 {
		t.Fatalf("%d clients left pending", backend.PendingClients())
	}
}
