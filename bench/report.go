package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerMetrics fills in the per-layer metrics of a traced run from the
// generator's own counts, the system's public counters over saturate
// and paced, the traced spans, and the ledger pass.
func layerMetrics(res *result, w *workload, g *generator, recs []fixRec, before, after counters, led *ledger, leased float64) {
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.layer[name] = metric{v, unit}
	}
	res.layer = map[string]metric{}
	share := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	// Spans of the paced phase, where due times are the schedule's.
	var serverMS, engineMS []float64
	good := 0
	for i := range recs {
		r := &recs[i]
		if (r.phase != phaseSaturate && r.phase != phasePaced) || r.done == 0 || r.err != nil {
			continue
		}
		good++
		if r.phase != phasePaced {
			continue
		}
		if r.flush > 0 {
			serverMS = append(serverMS, float64(r.flush-r.due)/float64(time.Millisecond)/res.slow.paced)
			engineMS = append(engineMS, float64(r.done-r.flush)/float64(time.Millisecond)/res.slow.paced)
		}
	}

	lateShare, maxLag := g.lagStats()
	put("loadgen.encode_us_per_capture", led.EncodeUS, "us")
	put("loadgen.max_lag_ms", float64(maxLag)/float64(time.Millisecond), "ms")
	put("loadgen.late_send_share", lateShare, "ratio")

	put("server.wire_bytes_per_fix", led.WireBytes, "bytes")
	put("server.decode_us_per_capture", led.DecodeUS, "us")
	put("server.decode_allocs_per_capture", led.DecodeAllocs, "count")
	put("server.group_us_per_capture", led.GroupUS, "us")
	put("server.stale_dropped", float64(after.stale-before.stale), "count")
	put("server.leased_workspaces_end", leased, "count")
	put("server.span_ms_p50", median(serverMS), "ms")

	put("music.frame_spectrum_us_per_frame", led.FrameSpectrumUS, "us")
	put("core.combine_ap_us_per_ap", led.CombineAPUS, "us")
	put("core.process_aps_us_per_fix", led.ProcessAPsUS, "us")
	put("core.synth_full_us_per_fix", led.SynthFullUS, "us")
	put("core.synth_region_us_per_fix", led.SynthRegionUS, "us")

	fixes := after.eng.Fixes - before.eng.Fixes
	predicted := share(after.eng.Predicted-before.eng.Predicted, fixes)
	border := share(after.eng.PredictFallbackBorder-before.eng.PredictFallbackBorder, fixes)
	gate := share(after.eng.PredictFallbackGate-before.eng.PredictFallbackGate, fixes)
	engineP50 := median(engineMS)
	put("engine.locate_us_per_fix", led.LocateUS, "us")
	put("engine.locate_allocs_per_fix", led.LocateAllocs, "count")
	put("engine.track_us_per_fix", led.TrackUS, "us")
	put("engine.span_ms_p50", engineP50, "ms")
	put("engine.queue_wait_ms_p50", math.Max(0, engineP50-led.LocateUS/1000), "ms")
	put("engine.predicted_share", predicted, "ratio")
	put("engine.fallback_border_share", border, "ratio")
	put("engine.fallback_gate_share", gate, "ratio")
	put("engine.gate_reject_share", share(after.eng.TrackRejects-before.eng.TrackRejects, fixes), "ratio")
	synthHits, synthMisses := after.synthHits-before.synthHits, after.synthMisses-before.synthMisses
	steerHits, steerMisses := after.steerHits-before.steerHits, after.steerMisses-before.steerMisses
	put("engine.synth_cache_hit_share", share(synthHits, synthHits+synthMisses), "ratio")
	put("engine.steering_hit_share", share(steerHits, steerHits+steerMisses), "ratio")
	put("engine.quota_rejected", float64(after.eng.QuotaRejected-before.eng.QuotaRejected), "count")
	put("engine.shed", float64(after.eng.Shed-before.eng.Shed), "count")

	put("cluster.route_us_per_capture", led.RouteUS, "us")
	put("cluster.routed_captures", float64(after.routed-before.routed), "count")
	skew := 0.0
	if n := len(after.perShard); n > 0 {
		var sum, max float64
		for i, v := range after.perShard {
			d := float64(v - before.perShard[i])
			sum += d
			max = math.Max(max, d)
		}
		skew = max / (sum / float64(n))
	}
	put("cluster.shard_skew", skew, "ratio")

	put("box.slowdown_saturate", res.slow.saturate, "ratio")
	put("box.slowdown_paced", res.slow.paced, "ratio")

	put("proc.peak_rss_mb", peakRSSMB(), "MB")
	put("proc.allocs_per_fix", float64(after.mallocs-before.mallocs)/math.Max(1, float64(good)), "count")
	put("proc.gc_pause_ms_per_s", float64(after.gcPause-before.gcPause)/float64(time.Millisecond)/after.at.Sub(before.at).Seconds(), "ms/s")
	put("e2e.fix_latency_p95_ms", quantile(res.latMS, 0.95), "ms")
	put("e2e.fix_latency_p99_ms", quantile(res.latMS, 0.99), "ms")
	put("e2e.fix_error_p90_cm", quantile(res.errCM, 0.9), "cm")

	// The ledger's sum: what one fix costs in the calls the benchmark
	// can see, with synthesis mixed as the engine's counters say it ran
	// (a fallback pays the region search and then the full grid).
	wire := led.EncodeUS + led.DecodeUS + led.GroupUS
	if w.cluster {
		wire += led.RouteUS + led.DecodeUS + led.GroupUS
	}
	sum := led.Captures*wire + led.ProcessAPsUS + led.TrackUS +
		(predicted+border+gate)*led.SynthRegionUS + (1-predicted)*led.SynthFullUS
	put("ledger.sum_us_per_fix", sum, "us")
	put("ledger.residual_share", 1-sum/1000/res.e2e["cpu_ms_per_fix"].Value, "ratio")

	// Tracing overhead: the saturate phase alternated segments with the
	// shim recording and not recording; rates relative to the yardstick.
	var on, off []float64
	for _, sg := range g.segs {
		if sg.phase != phaseSaturate {
			continue
		}
		if rate := float64(sg.good) / sg.wall.Seconds() / sg.ref.rate; sg.traced {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	put("trace.overhead_share", 1-mean(on)/mean(off), "ratio")
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// LatencyValid is false when the generator ran late (README.md,
	// "Generator honesty").
	LatencyValid bool              `json:"latency_valid"`
	Metrics      map[string]metric `json:"metrics"`
	Ledger       *ledger           `json:"ledger"`
	// Spans: one entry per traced fix of the paced phase, microseconds
	// from the run's origin. wire+server is [due, flush], engine is
	// [flush, done]; both are children of the fix, [due, done].
	Spans []traceSpan `json:"spans"`
}

type traceSpan struct {
	Fix     int    `json:"fix"`
	Client  uint32 `json:"client"`
	DueUS   int64  `json:"due_us"`
	FlushUS int64  `json:"flush_us"`
	DoneUS  int64  `json:"done_us"`
}

func writeTrace(dir string, res *result, recs []fixRec, led *ledger) error {
	tf := traceFile{Workload: res.workload, Correct: res.correct, Problems: res.problems, LatencyValid: res.latencyValid, Ledger: led, Metrics: map[string]metric{}}
	for k, v := range res.e2e {
		tf.Metrics[k] = v
	}
	for k, v := range res.layer {
		tf.Metrics[k] = v
	}
	for i := range recs {
		if r := &recs[i]; r.phase == phasePaced && r.flush > 0 && r.done > 0 {
			tf.Spans = append(tf.Spans, traceSpan{i, r.client, r.due.Microseconds(), r.flush.Microseconds(), r.done.Microseconds()})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.workload+".json"), data, 0o644)
}

// printTable writes a run's metrics for a reader.
func printTable(out io.Writer, res *result) {
	fmt.Fprintf(out, "\n== %s: %d attempted, %d failed, correct=%v\n", res.workload, res.attempted, res.failed, res.correct)
	for _, p := range res.problems {
		fmt.Fprintf(out, "   PROBLEM: %s\n", p)
	}
	fmt.Fprintf(out, "   times are at reference speed; the box ran %.3f (set-up), %.3f (saturate), %.3f (paced) times slower\n", res.slow.setup, res.slow.saturate, res.slow.paced)
	for k, set := range []map[string]metric{res.e2e, res.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			note := ""
			if n == "fix_latency_p50_ms" {
				note = fmt.Sprintf("  (%d samples)", len(res.latMS))
				if !res.latencyValid {
					note += "  INVALID: the generator ran late, see loadgen.*"
				}
			}
			if raw, ok := res.raw[n]; ok && k == 0 {
				note += fmt.Sprintf("  (as the clock read: %.4f)", raw.Value)
			}
			fmt.Fprintf(out, "   %-36s %14.4f %s%s\n", n, set[n].Value, set[n].Unit, note)
		}
	}
}

// printJSON writes the one-line result the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printJSON(out io.Writer, res *result, traced bool) error {
	metrics := res.e2e
	if traced {
		metrics = res.layer
	}
	return json.NewEncoder(out).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
}
