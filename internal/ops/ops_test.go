package ops_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/testbed"
)

// walkTracker builds a tracker with a few matured client tracks on a
// pinned clock.
func walkTracker(base time.Time) *engine.Tracker {
	tr := engine.NewTracker(engine.TrackerOptions{MeasSigma: 0.4, Gate: 4,
		TTL: time.Minute, Now: func() time.Time { return base.Add(10 * time.Second) }})
	for i := 0; i < 8; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		tr.ObserveFix(7, geom.Pt(2+0.5*float64(i), 5), at, false)
		tr.ObserveFix(9, geom.Pt(30, 12), at, false)
	}
	return tr
}

// TestSnapshotSaveLoadRoundTrip: Save → Load → Restore reproduces the
// drained tracker's predictions bit-for-bit.
func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	base := time.Unix(1700000000, 0)
	tr := walkTracker(base)
	path := filepath.Join(t.TempDir(), "tracks.json")
	snap := ops.NewSnapshot(tr, base.Add(10*time.Second).UnixNano())
	if len(snap.Tracks) != 2 {
		t.Fatalf("snapshot holds %d tracks, want 2", len(snap.Tracks))
	}
	if err := ops.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := ops.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != ops.SnapshotVersion || len(loaded.Tracks) != 2 {
		t.Fatalf("loaded snapshot: version %d, %d tracks", loaded.Version, len(loaded.Tracks))
	}

	fresh := engine.NewTracker(engine.TrackerOptions{MeasSigma: 0.4, Gate: 4,
		TTL: time.Minute, Now: func() time.Time { return base.Add(10 * time.Second) }})
	if n := fresh.Restore(loaded.Tracks); n != 2 {
		t.Fatalf("restored %d tracks, want 2", n)
	}
	at := base.Add(11 * time.Second)
	for _, id := range []uint32{7, 9} {
		want, ok1 := tr.Predict(id, at, 3)
		got, ok2 := fresh.Predict(id, at, 3)
		if !ok1 || !ok2 {
			t.Fatalf("client %d: predict ok = %v/%v", id, ok1, ok2)
		}
		if got != want {
			t.Fatalf("client %d: restored prediction %+v != live %+v", id, got, want)
		}
	}
}

// TestSnapshotLoadRejectsVersionSkew: a future-versioned file fails
// with ErrSnapshotVersion instead of being misparsed.
func TestSnapshotLoadRejectsVersionSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tracks.json")
	base := time.Unix(1700000000, 0)
	snap := ops.NewSnapshot(walkTracker(base), base.UnixNano())
	snap.Version = ops.SnapshotVersion + 1
	if err := ops.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Load(path); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Fatalf("version skew: err = %v, want ErrSnapshotVersion", err)
	}
}

func opsServer(t *testing.T) (*ops.Server, *engine.Engine, *engine.Tracker) {
	t.Helper()
	base := time.Unix(1700000000, 0)
	tr := walkTracker(base)
	eng := engine.New(engine.Options{
		Workers: 1,
		Config: core.Config{Wavelength: 0.1225, GridCell: 0.5,
			SynthCache: core.NewSynthCache(64 << 20), Steering: music.NewSteeringCache(32 << 20)},
		Tracker: tr, ClientQuota: 16, Predict: true,
	})
	t.Cleanup(eng.Close)
	backend := newBackend()
	backend.ErrorBudget = 2
	backend.NoteAPError(5)
	backend.NoteAPError(5) // quarantine AP 5 so the gauge is non-zero
	return &ops.Server{Engine: eng, Backend: backend}, eng, tr
}

// newBackend returns a quorum-2 backend holding one capture each for
// clients 101–103, so three clients wait below quorum.
func newBackend() *server.Backend {
	b := server.NewBackendDispatcher(2, 100*time.Millisecond,
		server.DispatchFunc(func(_ uint32, cs []server.Capture) { server.ReleaseAll(cs) }))
	now := time.Now()
	for id := uint32(101); id <= 103; id++ {
		b.IngestBatch([]server.Capture{{APID: 1, ClientID: id, Timestamp: now}})
	}
	return b
}

// TestMetricsEndpoint: /metrics speaks Prometheus text format and
// carries the engine, tracker, scheduler, and cache families.
func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := opsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	want := []string{
		"# TYPE arraytrack_jobs_submitted_total counter",
		"arraytrack_tracked_clients 2",
		"arraytrack_pending_clients 3",
		"arraytrack_synth_cache_budget_bytes 67108864",
		"arraytrack_steering_cache_budget_bytes 33554432",
		`arraytrack_predict_fallback_total{reason="no_track"}`,
		"arraytrack_predict_sigma 4",
		"arraytrack_client_quota 16",
		"arraytrack_track_observed_total 16",
		"arraytrack_short_captures_total 0",
		"arraytrack_degraded_fixes_total 0",
		"arraytrack_track_skew_clamped_total 0",
		"arraytrack_track_nonmonotonic_total 0",
		"arraytrack_ap_quarantines_total 1",
		"arraytrack_quarantined_aps 1",
		"arraytrack_quarantine_dropped_total 0",
		"arraytrack_degraded_flushes_total 0",
		"arraytrack_stale_dropped_total 0",
		"arraytrack_conn_errors_total 0",
		"arraytrack_deadline_reaped_total 0",
		"# TYPE arraytrack_udp_seq_gaps_total counter",
		"# TYPE arraytrack_udp_datagrams_total counter",
		"# TYPE arraytrack_leased_ingest_workspaces gauge",
		"# TYPE arraytrack_build_info gauge",
		`arraytrack_build_info{kernels="` + music.Kernels() + `"} 1`,
	}
	for _, cache := range []string{"synth", "steering"} {
		for _, series := range []string{"entries gauge", "bytes gauge", "budget_bytes gauge",
			"hits_total counter", "misses_total counter", "evictions_total counter", "spills_total counter"} {
			want = append(want, "# TYPE arraytrack_"+cache+"_cache_"+series)
		}
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("metrics exposition missing %q", w)
		}
	}
	for _, retired := range []string{"synth_cache_slices_total",
		"synth_cache_second_choice_total", "synth_cache_dense_evictions_total",
		"steering_cache_second_choice_total", "steering_cache_dense_evictions_total",
		"shed_total", "shed_after_ms"} {
		if strings.Contains(body, "arraytrack_"+retired) {
			t.Errorf("metrics exposition still carries the retired series %s", retired)
		}
	}
}

// TestPprofMounted: the ops listener serves net/http/pprof's index and
// a named profile, with no flag to turn it on.
func TestPprofMounted(t *testing.T) {
	srv, _, _ := opsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || len(body) == 0 {
			t.Errorf("GET %s = %d with %d bytes", path, resp.StatusCode, len(body))
		}
	}
}

// TestClusterRoutesNeedBackendAndTracker: the shard-handoff surface is
// served only by a server with both a backend and a tracker — 404
// without a tracker, and with one, GET /cluster/clients lists the
// tracked clients and those pending below quorum, and a body that does
// not decode is a 400.
func TestClusterRoutesNeedBackendAndTracker(t *testing.T) {
	bare := engine.New(engine.Options{Workers: 1, Config: core.Config{Wavelength: 0.1225, GridCell: 0.5}})
	defer bare.Close()
	noTracker := httptest.NewServer((&ops.Server{Engine: bare, Backend: newBackend()}).Handler())
	defer noTracker.Close()
	resp, err := noTracker.Client().Get(noTracker.URL + "/cluster/clients")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET /cluster/clients without a tracker = %d, want 404", resp.StatusCode)
	}

	srv, _, _ := opsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err = ts.Client().Get(ts.URL + "/cluster/clients")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Clients []uint32 `json:"clients"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{7, 9, 101, 102, 103}; resp.StatusCode != 200 || !slices.Equal(body.Clients, want) {
		t.Fatalf("GET /cluster/clients = %d %v, want 200 %v", resp.StatusCode, body.Clients, want)
	}
	bad, err := ts.Client().Post(ts.URL+"/cluster/remove", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("POST /cluster/remove with a bad body = %d, want 400", bad.StatusCode)
	}
}

// TestClientIntrospection: /clients indexes live tracks and
// /clients/{id} reports one client's smoothed state.
func TestClientIntrospection(t *testing.T) {
	srv, _, tr := opsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/clients")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Clients []uint32 `json:"clients"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(index.Clients) != 2 || index.Clients[0] != 7 || index.Clients[1] != 9 {
		t.Fatalf("client index = %v, want [7 9]", index.Clients)
	}

	resp, err = ts.Client().Get(ts.URL + "/clients/7")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ClientID uint32 `json:"client_id"`
		Smoothed struct{ X, Y float64 }
		Accepted bool `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want, _ := tr.Snapshot(7)
	if view.ClientID != 7 || view.Smoothed.X != want.Smoothed.X || view.Accepted != want.Accepted {
		t.Fatalf("client view %+v != snapshot %+v", view, want)
	}

	if resp, _ := ts.Client().Get(ts.URL + "/clients/999"); resp.StatusCode != 404 {
		t.Fatalf("untracked client = %d, want 404", resp.StatusCode)
	}
}

// TestKnobsApplyAndReadback: POST /knobs hot-reloads partial documents,
// GET /knobs reads the live values back, and /metrics shows a
// sub-second track TTL to the millisecond.
func TestKnobsApplyAndReadback(t *testing.T) {
	srv, eng, tr := opsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doc := `{"synth_cache_budget": 1048576, "client_quota": 4, "predict_sigma": 6, "track_ttl_ms": 1500}`
	resp, err := ts.Client().Post(ts.URL+"/knobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var applied struct {
		Applied []string `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(applied.Applied) != 4 {
		t.Fatalf("applied = %v, want 4 knobs", applied.Applied)
	}
	if b := eng.Config().SynthCache.Budget(); b != 1<<20 {
		t.Fatalf("synth budget = %d, want %d", b, 1<<20)
	}
	if q := eng.ClientQuota(); q != 4 {
		t.Fatalf("client quota = %d, want 4", q)
	}
	if s := eng.PredictSigma(); s != 6 {
		t.Fatalf("predict sigma = %v, want 6", s)
	}
	if ttl := tr.TTL(); ttl != 1500*time.Millisecond {
		t.Fatalf("track TTL = %v, want 1.5s", ttl)
	}

	// Unnamed knobs stay put (partial update), and readback agrees.
	resp, err = ts.Client().Get(ts.URL + "/knobs")
	if err != nil {
		t.Fatal(err)
	}
	var live ops.Knobs
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if live.SteeringCacheBudget == nil || *live.SteeringCacheBudget != 32<<20 {
		t.Fatalf("steering budget changed by a document that did not name it: %+v", live.SteeringCacheBudget)
	}
	if live.ClientQuota == nil || *live.ClientQuota != 4 {
		t.Fatalf("knobs readback quota = %+v, want 4", live.ClientQuota)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\narraytrack_track_ttl_seconds 1.5\n") {
		t.Fatal("/metrics does not read arraytrack_track_ttl_seconds 1.5 after track_ttl_ms 1500")
	}

	// Unknown fields are rejected — a typoed knob must not silently
	// no-op.
	resp, err = ts.Client().Post(ts.URL+"/knobs", "application/json", strings.NewReader(`{"clint_quota": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("typoed knob = %d, want 400", resp.StatusCode)
	}
}

// TestKnobsSkipTrackerKnobsWithoutTracker: on an engine without a
// tracker, where the predictive sigma and the track TTL have no
// target, POST /knobs applies the rest of the document and lists
// neither.
func TestKnobsSkipTrackerKnobsWithoutTracker(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, ClientQuota: 16,
		Config: core.Config{Wavelength: 0.1225, GridCell: 0.5}})
	defer eng.Close()
	ts := httptest.NewServer((&ops.Server{Engine: eng}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/knobs", "application/json",
		strings.NewReader(`{"client_quota": 4, "predict_sigma": 6, "track_ttl_ms": 1500}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var applied struct {
		Applied []string `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	if len(applied.Applied) != 1 || applied.Applied[0] != "client_quota" {
		t.Fatalf("applied = %v, want [client_quota]", applied.Applied)
	}
	if s := eng.PredictSigma(); s != 0 {
		t.Fatalf("predict sigma = %v on a tracker-less engine, want 0", s)
	}
}

// TestKnobsTinyCacheBudgetStaysBounded: a tiny synth_cache_budget bounds
// the engine's cache like any positive budget — it must retain no entry
// costing more than it, not read as the unbounded 0.
func TestKnobsTinyCacheBudgetStaysBounded(t *testing.T) {
	srv, eng, _ := opsServer(t)
	tiny := int64(7)
	if applied := srv.Apply(ops.Knobs{SynthCacheBudget: &tiny}); len(applied) != 1 {
		t.Fatalf("applied = %v, want synth_cache_budget", applied)
	}
	cache := eng.Config().SynthCache
	sg, err := core.NewSynthGrid(geom.Pt(0, 0), geom.Pt(10, 10), core.SynthOptions{Cell: 0.5, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	s := music.NewSpectrum(360)
	for i := range s.P {
		s.P[i] = 1 + float64(i%7)
	}
	if _, err := sg.Localize([]core.APSpectrum{{Pos: geom.Pt(1, 1), Spectrum: s}}); err != nil {
		t.Fatal(err)
	}
	if u := cache.Usage(); u.Budget != tiny || u.Bytes > u.Budget || u.Entries != 0 || u.Spills == 0 {
		t.Fatalf("usage %+v under a %d-byte budget, want every entry spilled", u, tiny)
	}
}

// TestJobLatencyHistogram: /metrics carries the engine's submit-to-result
// histogram in Prometheus form. After a batch of fixes and failures its
// cumulative buckets never fall, the +Inf bucket is _count, and _count
// equals arraytrack_jobs_completed_total.
func TestJobLatencyHistogram(t *testing.T) {
	tb := testbed.New()
	opt := testbed.DefaultThroughputOptions()
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.GridCell
	eng := engine.New(engine.Options{Workers: 2, Config: cfg})
	defer eng.Close()
	reqs := tb.ThroughputRequests(6, opt)
	reqs = append(reqs, engine.Request{ClientID: 99}, engine.Request{ClientID: 98}) // no APs: failures
	for _, r := range eng.LocateBatch(reqs) {
		if r.ClientID < 98 && r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	var b strings.Builder
	(&ops.Server{Engine: eng}).WriteMetrics(&b)
	series := map[string]float64{}
	var buckets []float64
	const name = "arraytrack_job_submit_to_result_seconds"
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if strings.HasPrefix(key, name+"_bucket{") {
			buckets = append(buckets, v)
		}
		series[key] = v
	}
	if !strings.Contains(b.String(), "# TYPE "+name+" histogram") || len(buckets) < 2 {
		t.Fatalf("no %s histogram in the exposition:\n%s", name, b.String())
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("cumulative buckets fall at %d: %v", i, buckets)
		}
	}
	count, completed := series[name+"_count"], series["arraytrack_jobs_completed_total"]
	if inf := series[name+`_bucket{le="+Inf"}`]; inf != count {
		t.Fatalf("+Inf bucket %g, _count %g", inf, count)
	}
	if count != float64(len(reqs)) || count != completed {
		t.Fatalf("_count %g, arraytrack_jobs_completed_total %g, want both %d", count, completed, len(reqs))
	}
	if series[name+"_sum"] <= 0 {
		t.Fatalf("_sum %g, want > 0", series[name+"_sum"])
	}
}
