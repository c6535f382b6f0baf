package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/stats"
)

// SchedOptions sizes the scheduler + predictive-localization
// experiment.
type SchedOptions struct {
	// Steps, Dt, Speed describe the tracked walk (as in the tracking
	// experiment).
	Steps int
	Dt    float64
	Speed float64
	// Sites indexes the AP sites that hear the client.
	Sites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// Cell is the synthesis pitch (the paper's 0.10 m by default, so
	// the speedup is measured on the real serving grid).
	Cell float64
	// LatencyCell is the pitch for the scheduler phases. Denser than
	// Cell, with the coarse screen disabled, so a batch fix is a long
	// flat surface sweep (~10–15 ms at the 2 cm default) — the
	// in-flight-blocking regime the ROADMAP flagged — while priority
	// traffic is cheap interactive region queries riding the lane.
	LatencyCell float64
	// Sigma is the predictive gate inflation (engine semantics).
	Sigma float64
	// Trials is the stage-timing repeat count (best-of).
	Trials int
	// BatchJobs is the backlog for the latency phase; PriorityJobs
	// interactive fixes are timed against it.
	BatchJobs, PriorityJobs int
	// FloodMillis is how long the hostile priority flood runs in the
	// starvation phase.
	FloodMillis int
	// Seed drives capture noise.
	Seed int64
}

// DefaultSchedOptions walks the corridor at the paper's 10 cm pitch
// and sizes the scheduler phases for a CI-friendly run.
func DefaultSchedOptions() SchedOptions {
	return SchedOptions{
		Steps:       24,
		Dt:          1.0,
		Speed:       1.2,
		Sites:       []int{0, 1, 2, 3, 4, 5},
		Capture:     DefaultCaptureOptions(),
		Cell:        0.10,
		LatencyCell: 0.02,
		// 3.5σ strictly covers the walk tracker's 3σ gate (the engine
		// clamps any lower value up to the gate) while keeping the
		// region a touch tighter than the 4σ engine default.
		Sigma:        3.5,
		Trials:       3,
		BatchJobs:    24,
		PriorityJobs: 8,
		FloodMillis:  300,
		Seed:         61,
	}
}

// RunSched measures the PR's two serving-path claims on the testbed:
//
//  1. Track-guided predictive localization — along a corridor walk,
//     the per-fix search stage (full-grid vs predicted-region with
//     verification) is timed on identical spectra, and two trackers
//     (full-grid serving vs predictive serving) are compared for
//     smoothed RMSE and fallback behaviour.
//  2. The scheduler — interactive priority p50/p99 against a batch
//     backlog with and without mid-surface preemption, and batch
//     completion under a hostile priority flood with and without
//     queue ageing (the starvation table).
//
// Emitted as metrics so `atbench -exp sched -json` extends the
// BENCH_*.json trajectory.
func (tb *Testbed) RunSched(opt SchedOptions) (*Report, error) {
	r := &Report{ID: "sched", Title: "engine scheduler + track-guided predictive localization"}
	if err := tb.schedPredictive(r, opt); err != nil {
		return nil, err
	}
	if err := tb.schedPriorityLatency(r, opt); err != nil {
		return nil, err
	}
	if err := tb.schedStarvation(r, opt); err != nil {
		return nil, err
	}
	return r, nil
}

// schedPredictive is phase 1: the walk.
func (tb *Testbed) schedPredictive(r *Report, opt SchedOptions) error {
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.Cell
	cfg.SynthCache = core.NewSynthCacheBudget(core.DefaultSynthCacheBudget)
	aps := tb.APsFor(opt.Sites, opt.Capture)
	trOpt := engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3}

	fullEng := engine.New(engine.Options{Workers: 2, Config: cfg, Tracker: engine.NewTracker(trOpt)})
	defer fullEng.Close()
	predEng := engine.New(engine.Options{Workers: 2, Config: cfg, Tracker: engine.NewTracker(trOpt),
		Predict: true, PredictSigma: opt.Sigma})
	defer predEng.Close()

	// Stage timing measures the batch serving path: one AP worker, one
	// synth worker, same cache.
	stageCfg := cfg
	stageCfg.APWorkers = 1
	stageCfg.SynthWorkers = 1
	pipe := core.NewPipeline(stageCfg)
	sigma := opt.Sigma
	if g := trOpt.Gate; sigma < g {
		sigma = g
	}

	walkOpt := TrackingOptions{Steps: opt.Steps, Dt: opt.Dt, Speed: opt.Speed}
	base := time.Unix(1700000000, 0)
	var fullMS, predMS []float64
	var fullErrCM, predErrCM []float64
	predicted := 0

	r.Addf("%4s  %-12s %9s %9s %7s  %s", "step", "truth", "full", "tracked", "x", "served")
	for i := 0; i < opt.Steps; i++ {
		truth := trackingTruth(walkOpt, i)
		captures := make([][]core.FrameCapture, len(opt.Sites))
		for si, s := range opt.Sites {
			captures[si] = tb.CaptureClient(truth, tb.Sites[s], opt.Capture, rng)
		}
		at := base.Add(time.Duration(float64(i) * opt.Dt * float64(time.Second)))
		req := engine.Request{ClientID: 1, APs: aps, Captures: captures,
			Min: tb.Plan.Min, Max: tb.Plan.Max, Time: at}

		// Search-stage timing on the spectra this step produced, with
		// the exact region the predictive engine is about to use
		// (Predict must run before Locate advances the track).
		specs, err := pipe.ProcessAPs(aps, captures)
		if err != nil {
			return err
		}
		tFull := bestOf(opt.Trials, func() {
			if _, err := pipe.Synthesize(specs, tb.Plan.Min, tb.Plan.Max); err != nil {
				panic(err)
			}
		})
		fullMS = append(fullMS, float64(tFull)/float64(time.Millisecond))
		stage := "-"
		if pred, ok := predEng.Tracker().Predict(1, at, engine.DefaultPredictMinFixes); ok {
			region := engine.PredictRegion(pred, sigma, opt.Cell)
			tPred := bestOf(opt.Trials, func() {
				if _, _, err := pipe.SynthesizeRegionInterior(specs, tb.Plan.Min, tb.Plan.Max, region); err != nil {
					panic(err)
				}
			})
			predMS = append(predMS, float64(tPred)/float64(time.Millisecond))
			stage = fmt.Sprintf("%.1fx", float64(tFull)/float64(tPred))
		}

		rf := fullEng.Locate(req)
		rp := predEng.Locate(req)
		if rf.Err != nil {
			return rf.Err
		}
		if rp.Err != nil {
			return rp.Err
		}
		served := "full"
		if rp.Predicted {
			served = "region"
			predicted++
		}
		fullErrCM = append(fullErrCM, rf.Track.Smoothed.Dist(truth)*100)
		predErrCM = append(predErrCM, rp.Track.Smoothed.Dist(truth)*100)
		r.Addf("%4d  (%5.1f,%4.1f) %8.2fms %8.2fms %7s  %s",
			i+1, truth.X, truth.Y, fullMS[len(fullMS)-1],
			lastOr(predMS, fullMS[len(fullMS)-1]), stage, served)
	}

	if len(predMS) == 0 {
		return errors.New("testbed: no step produced a live track prediction")
	}
	sort.Float64s(fullMS)
	sort.Float64s(predMS)
	fullP50 := stats.Percentile(fullMS, 50)
	predP50 := stats.Percentile(predMS, 50)
	speedup := fullP50 / predP50
	fullRMSE := rmseSqrt(fullErrCM)
	predRMSE := rmseSqrt(predErrCM)
	st := predEng.Stats()
	attempts := st.Predicted + st.PredictFallbackBorder + st.PredictFallbackGate + st.PredictFallbackError
	fallbackPct := 0.0
	if attempts > 0 {
		fallbackPct = 100 * float64(attempts-st.Predicted) / float64(attempts)
	}

	r.Addf("")
	r.Addf("search stage p50: tracked region %.3fms, full grid %.3fms (full/region %.2fx; gated: region no slower than full); p99 %.3f vs %.3fms",
		predP50, fullP50, speedup, stats.Percentile(predMS, 99), stats.Percentile(fullMS, 99))
	r.Addf("smoothed RMSE: full-grid serving %.0fcm, predictive serving %.0fcm", fullRMSE, predRMSE)
	r.Addf("served predictively %d/%d fixes (fallbacks: border %d, gate %d, error %d, no-track %d)",
		predicted, opt.Steps, st.PredictFallbackBorder, st.PredictFallbackGate,
		st.PredictFallbackError, st.PredictFallbackNoTrack)
	r.AddMetric("sched_search_p50_full_ms", fullP50, "ms")
	r.AddMetric("sched_search_p50_pred_ms", predP50, "ms")
	r.AddMetric("sched_search_speedup_p50", speedup, "x")
	r.AddMetric("sched_rmse_full_cm", fullRMSE, "cm")
	r.AddMetric("sched_rmse_pred_cm", predRMSE, "cm")
	r.AddMetric("sched_pred_share_pct", 100*float64(predicted)/float64(opt.Steps), "%")
	r.AddMetric("sched_fallback_pct", fallbackPct, "%")
	return nil
}

func lastOr(xs []float64, def float64) float64 {
	if len(xs) == 0 {
		return def
	}
	return xs[len(xs)-1]
}

// schedLatencyConfig is the dense-floor serving config the scheduler
// phases run: LatencyCell pitch with the coarse screen disabled, so a
// full-grid batch fix is one long surface sweep with a yield point
// every chunk.
func (tb *Testbed) schedLatencyConfig(opt SchedOptions) core.Config {
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.LatencyCell
	cfg.CoarseFactor = 1
	// Dense-floor LUTs are ~19 MB per AP at 2 cm; a roomy budget keeps
	// all of them resident even when several hash into one shard, so
	// the phase times scheduling, not LUT rebuild churn.
	cfg.SynthCache = core.NewSynthCacheBudget(1 << 30)
	return cfg
}

// priorityRegionFor boxes the interactive query 1.5 m around the
// request's client — the PR 4 "zoomed dashboard" access pattern.
func (tb *Testbed) priorityRegionFor(i int) core.Region {
	c := tb.Clients[i%len(tb.Clients)]
	return core.Region{Min: geom.Pt(c.X-1.5, c.Y-1.5), Max: geom.Pt(c.X+1.5, c.Y+1.5)}
}

// schedLatencyWorkers is the engine width of the latency phase.
const schedLatencyWorkers = 2

// schedPriorityLatency is phase 2: interactive priority region
// queries against a heavy full-grid batch backlog, preemption on vs
// off.
func (tb *Testbed) schedPriorityLatency(r *Report, opt SchedOptions) error {
	tOpt := DefaultThroughputOptions()
	tOpt.GridCell = opt.LatencyCell
	reqs := tb.ThroughputRequests(opt.BatchJobs, tOpt)

	measure := func(noPreempt bool) (p50, p99, batchP99 float64, stolen uint64, err error) {
		eng := engine.New(engine.Options{Workers: schedLatencyWorkers, Queue: len(reqs) + 8,
			PriorityQueue: opt.PriorityJobs + 2, // deep enough that Submit never blocks the timer
			AgeLimit:      -1,                   // isolate preemption; ageing has its own phase
			Config:        tb.schedLatencyConfig(opt), NoPreempt: noPreempt})
		defer eng.Close()
		if r := eng.Locate(reqs[0]); r.Err != nil { // warm LUT + steering caches
			return 0, 0, 0, 0, r.Err
		}
		// Pace the interactive arrivals off a warm batch fix timed on
		// this box, so all of them land while the backlog is still
		// draining however fast the host is: they are spread over the
		// first half of the time the backlog should take, the other
		// half being the margin on that estimate.
		warm := time.Now()
		if r := eng.Locate(reqs[0]); r.Err != nil {
			return 0, 0, 0, 0, r.Err
		}
		backlog := time.Since(warm) * time.Duration(len(reqs)) / schedLatencyWorkers
		spacing := backlog / time.Duration(2*(opt.PriorityJobs+1))
		var mu sync.Mutex
		var batchMS, prioMS []float64
		var wg sync.WaitGroup
		submit := func(req engine.Request, out *[]float64) error {
			wg.Add(1)
			start := time.Now()
			return eng.Submit(req, func(res engine.Result) {
				ms := float64(time.Since(start)) / float64(time.Millisecond)
				mu.Lock()
				if res.Err == nil {
					*out = append(*out, ms)
				}
				mu.Unlock()
				wg.Done()
			})
		}
		for _, q := range reqs {
			if err := submit(q, &batchMS); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		// Interactive queries arrive while batch fixes are in flight —
		// the arrival pattern preemption exists for. Each lands
		// mid-surface of some in-flight batch fix; the spacing keeps
		// arrivals inside the backlog window.
		for i := 0; i < opt.PriorityJobs; i++ {
			time.Sleep(spacing)
			q := reqs[i%len(reqs)]
			q.ClientID = uint32(900 + i)
			q.Priority = true
			q.Region = tb.priorityRegionFor(i)
			if err := submit(q, &prioMS); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		wg.Wait()
		if len(prioMS) < opt.PriorityJobs {
			return 0, 0, 0, 0, fmt.Errorf("only %d/%d priority fixes succeeded", len(prioMS), opt.PriorityJobs)
		}
		sort.Float64s(prioMS)
		sort.Float64s(batchMS)
		return stats.Percentile(prioMS, 50), stats.Percentile(prioMS, 99),
			stats.Percentile(batchMS, 99), eng.Stats().PriorityStolen, nil
	}

	p50y, p99y, batchP99, stolen, err := measure(false)
	if err != nil {
		return err
	}
	p50n, p99n, _, _, err := measure(true)
	if err != nil {
		return err
	}
	r.Addf("")
	r.Addf("interactive region fix vs %d-job full-grid backlog @ %.2fm: preempt p50 %.1fms p99 %.1fms (%d stolen), no-preempt p50 %.1fms p99 %.1fms, batch p99 %.1fms",
		opt.BatchJobs, opt.LatencyCell, p50y, p99y, stolen, p50n, p99n, batchP99)
	r.AddMetric("sched_prio_p50_preempt_ms", p50y, "ms")
	r.AddMetric("sched_prio_p99_preempt_ms", p99y, "ms")
	r.AddMetric("sched_prio_p99_nopreempt_ms", p99n, "ms")
	r.AddMetric("sched_batch_p99_ms", batchP99, "ms")
	return nil
}

// schedStarvation is phase 3: batch completion under a hostile
// priority flood, ageing on vs off.
func (tb *Testbed) schedStarvation(r *Report, opt SchedOptions) error {
	tOpt := DefaultThroughputOptions()
	tOpt.GridCell = opt.LatencyCell
	reqs := tb.ThroughputRequests(4, tOpt)
	floodFor := time.Duration(opt.FloodMillis) * time.Millisecond

	measure := func(ageLimit time.Duration) (p50, p99 float64, aged, quotaRej uint64, err error) {
		// NoPreempt isolates ageing: with steals enabled an aged-in
		// batch job would service the flood from inside its own
		// surface, muddying the wait measurement. Hostile jobs are
		// full-grid fixes, so the lane backlog (quota × hostiles ×
		// ~12 ms) deterministically outlasts the age limit.
		eng := engine.New(engine.Options{Workers: 1, Queue: 64, PriorityQueue: 64,
			ClientQuota: 4, AgeLimit: ageLimit, Config: tb.schedLatencyConfig(opt), NoPreempt: true})
		defer eng.Close()
		if r := eng.Locate(reqs[0]); r.Err != nil { // warm caches
			return 0, 0, 0, 0, r.Err
		}

		stop := make(chan struct{})
		var flood sync.WaitGroup
		for h := 0; h < 4; h++ { // four hostile identities, full quota each
			flood.Add(1)
			go func(h int) {
				defer flood.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := reqs[h%len(reqs)]
					q.ClientID = uint32(990 + h)
					q.Priority = true
					err := eng.Submit(q, func(engine.Result) {})
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
		time.Sleep(10 * time.Millisecond) // let the flood occupy the lane

		// Two well-behaved batch clients, two jobs each.
		var mu sync.Mutex
		var waits []float64
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			for _, id := range []uint32{1, 2} {
				q := reqs[(i+1)%len(reqs)]
				q.ClientID = id
				wg.Add(1)
				start := time.Now()
				if err := eng.Submit(q, func(res engine.Result) {
					ms := float64(time.Since(start)) / float64(time.Millisecond)
					mu.Lock()
					if res.Err == nil {
						waits = append(waits, ms)
					}
					mu.Unlock()
					wg.Done()
				}); err != nil {
					return 0, 0, 0, 0, err
				}
			}
		}
		time.Sleep(floodFor)
		close(stop)
		flood.Wait()
		wg.Wait()
		if len(waits) != 4 {
			return 0, 0, 0, 0, fmt.Errorf("only %d/4 batch fixes succeeded", len(waits))
		}
		sort.Float64s(waits)
		st := eng.Stats()
		return stats.Percentile(waits, 50), stats.Percentile(waits, 99), st.AgedBatch, st.QuotaRejected, nil
	}

	p50a, p99a, aged, quotaA, err := measure(40 * time.Millisecond)
	if err != nil {
		return err
	}
	p50n, p99n, _, _, err := measure(-1)
	if err != nil {
		return err
	}
	r.Addf("batch under %dms hostile priority flood: ageing p50 %.0fms p99 %.0fms (%d promoted, %d quota-rejected), no ageing p50 %.0fms p99 %.0fms",
		opt.FloodMillis, p50a, p99a, aged, quotaA, p50n, p99n)
	r.AddMetric("sched_batch_flood_p99_aged_ms", p99a, "ms")
	r.AddMetric("sched_batch_flood_p99_noage_ms", p99n, "ms")
	r.AddMetric("sched_flood_aged_promotions", float64(aged), "")
	r.AddMetric("sched_flood_quota_rejects", float64(quotaA), "")
	return nil
}
