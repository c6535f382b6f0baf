package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/lru"
	"repro/internal/music"
	"repro/internal/server"
)

// Server exposes a running engine's metrics, per-client track
// introspection, and the hot-reloadable knobs over HTTP. Only Engine
// is required; nil optional fields simply hide the corresponding
// surface; the caches are always the engine's own (Engine.Config). All
// handlers are safe for concurrent use — they only touch the engine's
// own concurrency-safe accessors.
type Server struct {
	// Engine is the serving engine. Required.
	Engine *engine.Engine
	// Backend, when non-nil, exports the ingest self-defense counters
	// (connection errors, idle reaps, AP quarantine, degraded flushes),
	// the UDP datagram-mode health counters and the count of clients
	// buffered below quorum; with the engine's tracker it also serves
	// the shard-handoff control surface.
	Backend *server.Backend
	// Sink, when non-nil, exports the capture sink's clock-skew guard
	// counter.
	Sink *engine.CaptureSink
}

// Handler returns the ops mux:
//
//	GET  /metrics       Prometheus text exposition of every counter
//	GET  /healthz       200 ok
//	GET  /clients       JSON index of live tracked client IDs
//	GET  /clients/{id}  one client's smoothed track state
//	GET  /knobs         current values of the hot-reloadable knobs
//	POST /knobs         apply a Knobs JSON document (partial updates)
//	     /cluster/*     shard-handoff control surface (cluster.ServeControl
//	                    over a cluster.Node), with a Backend and a tracker
//	GET  /debug/pprof/  the runtime profiles of net/http/pprof (CPU,
//	                    heap, goroutines, mutex, block, execution trace)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /clients", s.handleClients)
	mux.HandleFunc("GET /clients/{id}", s.handleClient)
	mux.HandleFunc("GET /knobs", s.handleKnobsGet)
	mux.HandleFunc("POST /knobs", s.handleKnobsPost)
	if s.Backend != nil && s.Engine.Tracker() != nil {
		cluster.ServeControl(mux, cluster.Node{Backend: s.Backend, Engine: s.Engine})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promWriter accumulates one Prometheus text-format exposition; the
// hand-rolled writer keeps the repo dependency-free.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) counter(name, help string, v uint64) { p.series(name, help, true, v) }

func (p *promWriter) series(name, help string, counter bool, v uint64) {
	kind := "gauge"
	if counter {
		kind = "counter"
	}
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
}

func (p *promWriter) gauge(name, help string, v int64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func (p *promWriter) gaugeF(name, help string, v float64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// histogram writes h as a Prometheus histogram in seconds: cumulative
// _bucket series, one per bound and +Inf, then _sum and _count.
func (p *promWriter) histogram(name, help string, h engine.LatencyHistogram) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = strconv.FormatFloat(h.Bounds[i].Seconds(), 'g', -1, 64)
		}
		fmt.Fprintf(&p.b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(&p.b, "%s_sum %g\n%s_count %d\n", name, h.Sum.Seconds(), name, cum)
}

// cache writes one cache's usage as series named prefix+suffix: the
// gauges entries, bytes and budget_bytes, then the counters, suffixed
// _total.
func (p *promWriter) cache(prefix string, u lru.Usage) {
	p.series(prefix+"entries", "Entries held.", false, uint64(u.Entries))
	p.series(prefix+"bytes", "Accounted size: the summed cost of held entries.", false, uint64(u.Bytes))
	p.series(prefix+"budget_bytes", "Byte budget (0 = unbounded).", false, uint64(u.Budget))
	p.series(prefix+"hits_total", "Lookup hits.", true, u.Hits)
	p.series(prefix+"misses_total", "Lookup misses (entries built).", true, u.Misses)
	p.series(prefix+"evictions_total", "Entries evicted to stay within the budget, spills included.", true, u.Evictions)
	p.series(prefix+"spills_total", "Entries larger than the budget, served without retention.", true, u.Spills)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// WriteMetrics writes every series in the Prometheus text exposition
// format: the body of GET /metrics, and what the server's stats log
// lists.
func (s *Server) WriteMetrics(w io.Writer) {
	st := s.Engine.Stats()
	var p promWriter

	fmt.Fprintf(&p.b, "# HELP arraytrack_build_info Constant 1; kernels names the spectrum-scan loop bodies this CPU selected.\n"+
		"# TYPE arraytrack_build_info gauge\narraytrack_build_info{kernels=%q} 1\n", music.Kernels())
	p.counter("arraytrack_jobs_submitted_total", "Jobs accepted into the scheduler.", st.Submitted)
	p.counter("arraytrack_jobs_completed_total", "Jobs finished (fixes + failures).", st.Completed)
	p.histogram("arraytrack_job_submit_to_result_seconds", "Each job's time from engine submission to its result: queue wait, localization and tracking (wire decode and quorum group-wait come before it).", s.Engine.Latency())
	p.counter("arraytrack_fixes_total", "Successful localizations.", st.Fixes)
	p.counter("arraytrack_failures_total", "Jobs that returned an error.", st.Failures)
	p.counter("arraytrack_rejected_total", "Submissions refused (closed or quota).", st.Rejected)
	p.counter("arraytrack_quota_rejected_total", "Submissions refused with the per-client quota.", st.QuotaRejected)

	p.counter("arraytrack_predicted_fixes_total", "Fixes served from the verified track-guided region.", st.Predicted)
	for _, f := range []struct {
		reason string
		v      uint64
	}{
		{"no_track", st.PredictFallbackNoTrack},
		{"border", st.PredictFallbackBorder},
		{"gate", st.PredictFallbackGate},
		{"error", st.PredictFallbackError},
	} {
		name := "arraytrack_predict_fallback_total"
		if f.reason == "no_track" {
			fmt.Fprintf(&p.b, "# HELP %s Predictive attempts that fell back to the full grid, by reason.\n# TYPE %s counter\n", name, name)
		}
		fmt.Fprintf(&p.b, "%s{reason=%q} %d\n", name, f.reason, f.v)
	}

	p.gauge("arraytrack_workers", "Localization worker pool size.", int64(st.Workers))
	p.gauge("arraytrack_queue_depth", "Instantaneous scheduler queue depth.", int64(st.Queued))
	p.gauge("arraytrack_tracked_clients", "Live client tracks.", int64(st.TrackedClients))
	p.counter("arraytrack_track_gate_rejects_total", "Fixes discarded by the tracker's Mahalanobis gate.", st.TrackRejects)
	tr := s.Engine.Tracker()
	if tr != nil {
		ts := tr.Stats()
		p.counter("arraytrack_track_observed_total", "Fixes folded into client tracks.", ts.Observed)
		p.counter("arraytrack_track_evicted_total", "Stale client tracks evicted.", ts.Evicted)
		p.counter("arraytrack_track_skew_clamped_total", "Fix timestamps clamped by the tracker's clock-skew guard.", ts.SkewClamped)
		p.counter("arraytrack_track_nonmonotonic_total", "Fixes that arrived behind their track (folded in at dt=0).", ts.NonMonotonic)
		p.counter("arraytrack_track_degraded_observed_total", "Degraded-quorum fixes folded into tracks.", ts.DegradedObserved)
	}

	p.counter("arraytrack_shed_total", "Jobs failed with ErrOverloaded after ageing past the shed bound.", st.Shed)
	p.counter("arraytrack_short_captures_total", "Jobs refused because a capture's streams were not the window's length (MaxSamples).", st.ShortCaptures)
	p.counter("arraytrack_degraded_fixes_total", "Fixes produced from degraded-quorum capture groups.", st.DegradedFixes)
	if s.Sink != nil {
		p.counter("arraytrack_sink_skew_ignored_total", "Capture timestamps the sink's clock-skew guard excluded from time selection.", s.Sink.SkewIgnored())
	}
	if s.Backend != nil {
		h := s.Backend.Health()
		p.counter("arraytrack_conn_errors_total", "Ingest connections terminated on a read or decode error.", h.ConnErrors)
		p.counter("arraytrack_deadline_reaped_total", "Ingest connections reaped by the idle deadline.", h.DeadlineReaped)
		p.counter("arraytrack_ap_quarantines_total", "Times an AP entered quarantine after exhausting its error budget.", h.Quarantines)
		p.counter("arraytrack_quarantine_dropped_total", "Captures dropped because their AP was quarantined.", h.QuarantinedDropped)
		p.counter("arraytrack_degraded_flushes_total", "Capture groups flushed below full quorum.", h.DegradedFlushes)
		p.counter("arraytrack_stale_dropped_total", "Stuck groups released as undispatchable by the sweep.", h.StaleDropped)
		p.gauge("arraytrack_quarantined_aps", "APs currently quarantined.", int64(h.Quarantined))
		p.gauge("arraytrack_pending_clients", "Clients buffered below capture quorum.", int64(s.Backend.PendingClients()))
		u := s.Backend.UDP()
		p.counter("arraytrack_udp_datagrams_total", "Well-formed batch-frame datagrams ingested.", u.Datagrams)
		p.counter("arraytrack_udp_captures_total", "Captures carried by ingested datagrams.", u.Captures)
		p.counter("arraytrack_udp_bad_total", "Datagrams dropped as undecodable.", u.Bad)
		p.counter("arraytrack_udp_seq_gaps_total", "Missing per-AP capture sequence numbers (datagram loss).", u.SeqGaps)
		p.counter("arraytrack_udp_seq_reorders_total", "Captures that arrived at or below their AP's newest sequence number.", u.SeqReorders)
		p.gauge("arraytrack_leased_ingest_workspaces", "Pooled ingest workspaces currently leased (leaks show as a plateau).", server.LeasedIngestWorkspaces())
	}

	cfg := s.Engine.Config()
	p.cache("arraytrack_synth_cache_", cfg.SynthCache.Usage())
	p.cache("arraytrack_steering_cache_", cfg.Steering.Usage())

	p.gaugeF("arraytrack_predict_sigma", "Live predictive-region sigma (0 = predictive path disabled).", s.Engine.PredictSigma())
	p.gauge("arraytrack_client_quota", "Per-client scheduler token budget (0 = unlimited).", int64(s.Engine.ClientQuota()))
	if tr != nil {
		p.gaugeF("arraytrack_track_ttl_seconds", "Track eviction TTL in seconds (0 = disabled).", tr.TTL().Seconds())
	}
	p.gauge("arraytrack_shed_after_ms", "Overload-shedding age bound in milliseconds (0 = shedding off).", int64(s.Engine.ShedAfter()/time.Millisecond))

	io.WriteString(w, p.b.String())
}

// clientView is the introspection JSON for one tracked client.
type clientView struct {
	ClientID uint32     `json:"client_id"`
	Time     time.Time  `json:"time"`
	Smoothed geom.Point `json:"smoothed"`
	Vel      geom.Vec   `json:"vel"`
	Accepted bool       `json:"accepted"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleClients(w http.ResponseWriter, _ *http.Request) {
	tr := s.Engine.Tracker()
	if tr == nil {
		http.Error(w, "no tracker configured", http.StatusNotFound)
		return
	}
	writeJSON(w, struct {
		Clients []uint32 `json:"clients"`
	}{Clients: tr.Clients()})
}

func (s *Server) handleClient(w http.ResponseWriter, r *http.Request) {
	tr := s.Engine.Tracker()
	if tr == nil {
		http.Error(w, "no tracker configured", http.StatusNotFound)
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		http.Error(w, "bad client id", http.StatusBadRequest)
		return
	}
	snap, ok := tr.Snapshot(uint32(id))
	if !ok {
		http.Error(w, "client not tracked", http.StatusNotFound)
		return
	}
	writeJSON(w, clientView{
		ClientID: snap.ClientID,
		Time:     snap.Time,
		Smoothed: snap.Smoothed,
		Vel:      snap.Vel,
		Accepted: snap.Accepted,
	})
}
