package testbed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestRegionGateOnTestbed is the acceptance gate: against a 32 MiB
// cache budget and 50 distinct ad-hoc regions, (1) the reported cache
// size never exceeds the budget at any point in the run, and (2) on
// every one of the 205 testbed scenes (41 clients × [all-six plus
// four 3-AP combos], the same sweep the synthesis exactness test
// covers) the region-query argmax equals the full-grid argmax
// restricted to that region, at the paper's 10 cm pitch.
func TestRegionGateOnTestbed(t *testing.T) {
	tb := New()
	specs, _, err := tb.SpectraForAll(DefaultAccuracyOptions())
	if err != nil {
		t.Fatal(err)
	}
	const budget int64 = 32 << 20
	cache := core.NewSynthCacheBudget(budget)
	fullGrid, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: 0.10, Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	regions := regionWorkload(50, rng)

	combos := [][]int{{0, 1, 2, 3, 4, 5}}
	combos = append(combos, Combinations(len(tb.Sites), 3)[:4]...)
	var h core.Heatmap
	checked := 0
	for ci := range specs {
		for _, combo := range combos {
			scene := make([]core.APSpectrum, len(combo))
			for i, si := range combo {
				scene[i] = core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[ci][si]}
			}
			region := regions[checked%len(regions)]
			sg, err := core.NewSynthGridRegion(tb.Plan.Min, tb.Plan.Max, region, core.SynthOptions{
				Cell: 0.10, Workers: 1, Cache: cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sg.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			if err := fullGrid.LogHeatmapInto(&h, scene); err != nil {
				t.Fatal(err)
			}
			want := restrictedArgmaxCell(&h, fullGrid.Spec(), sg.Spec())
			if got != want {
				t.Fatalf("client %d combo %v region %d: region argmax %d != restricted full argmax %d",
					ci, combo, checked%len(regions), got, want)
			}
			if u := cache.Usage(); u.Bytes > budget {
				t.Fatalf("cache size %d exceeds %d budget after scene %d", u.Bytes, budget, checked)
			}
			checked++
		}
	}
	u := cache.Usage()
	t.Logf("region argmax == restricted full argmax on all %d testbed scenes (cache: %d entries, %d/%d bytes, %d evictions, %d slices)",
		checked, u.Entries, u.Bytes, budget, u.Evictions, u.Slices)
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
}

// TestRegionSteadyStateAllocs is the gate's alloc clause: with warm
// LUTs and pooled scratch, a region fix through a prebuilt grid
// allocates at most 2 objects per op.
func TestRegionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the gate runs in the non-race pass")
	}
	tb := New()
	scenes, _, err := tb.synthScenes(SynthOptions{MaxClients: 2, Sites: []int{0, 2, 4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewSynthCacheBudget(32 << 20)
	region := core.Region{Min: geom.Pt(8, 3), Max: geom.Pt(20, 12)}
	sg, err := core.NewSynthGridRegion(tb.Plan.Min, tb.Plan.Max, region, core.SynthOptions{
		Cell: 0.10, Workers: 1, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Localize(scenes[0]); err != nil { // warm LUTs + pool
		t.Fatal(err)
	}
	allocs := allocsPerRun(20, func() {
		if _, err := sg.Localize(scenes[0]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state region Localize: %.0f allocs/op", allocs)
	if allocs > 2 {
		t.Fatalf("region fix allocates %.0f/op steady-state, want ≤2", allocs)
	}
}

// TestRunRegionsMeetsTargets runs the regions experiment (capped) and
// enforces its headline claims: exact argmax on every query, a real
// hit rate at a comfortable budget, and a latency-lane p99 for
// interactive region fixes no worse than the batch backlog's p99 (the
// lane exists to jump that backlog; on an unloaded runner the margin
// is typically an order of magnitude).
//
// The latency claim takes the best of a few attempts, the same
// convention as the other timing gates: the priority p99 is the max
// of six samples on a shared, often single-core host, and the
// numeric-kernel sprint shrank the batch p99 it is compared against —
// one OS-scheduling hiccup in six samples can cross the bar without
// any real lane regression, but a lane that genuinely fails to jump
// the backlog fails every attempt.
func TestRunRegionsMeetsTargets(t *testing.T) {
	if raceEnabled {
		t.Skip("instrumentation skews the latency distribution; the gate runs in the non-race pass")
	}
	tb := New()
	opt := DefaultRegionsOptions()
	opt.MaxClients = 3
	opt.Queries = 120
	opt.Budgets = []int64{1 << 20, 32 << 20}
	opt.BatchJobs = 24
	opt.PriorityJobs = 6

	const attempts = 3
	var lastErr string
	for a := 0; a < attempts; a++ {
		r, err := tb.RunRegions(opt)
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
		// Deterministic claims: fail immediately, retries cannot help.
		if pct := get("regions_argmax_match_pct"); pct != 100 {
			t.Fatalf("region argmax matches restricted full on %.0f%% of queries, want 100%%", pct)
		}
		if hit := get("regions_hit_pct_max_budget"); hit < 50 {
			t.Fatalf("hit rate %.1f%% at the largest budget, want ≥50%% under the skewed workload", hit)
		}
		prio, batch := get("regions_prio_p99_ms"), get("regions_batch_p99_ms")
		if prio <= batch {
			t.Logf("p99: priority %.1fms, batch %.1fms", prio, batch)
			return
		}
		lastErr = fmt.Sprintf("priority-lane region p99 %.1fms exceeds batch p99 %.1fms — the lane is not jumping the backlog", prio, batch)
		t.Logf("attempt %d/%d: %s", a+1, attempts, lastErr)
	}
	t.Error(lastErr)
}
