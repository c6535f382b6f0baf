package testbed

import (
	"testing"

	"repro/internal/core"
)

// TestRunSynthMeetsTargets runs the synthesis experiment (capped) and
// enforces the acceptance criteria end to end on real testbed scenes:
// the coarse-to-fine argmax must equal the full-resolution argmax on
// every scene, the staged estimator must stay at the seed estimator's
// accuracy, and the steady-state path must allocate ≤2 objects per
// fix.
func TestRunSynthMeetsTargets(t *testing.T) {
	if raceEnabled {
		t.Skip("pool drops and instrumentation skew allocs/timings under the race detector; the gate runs in the non-race pass")
	}
	tb := New()
	opt := DefaultSynthOptions()
	opt.MaxClients = 4
	opt.Trials = 2
	opt.Cells = []float64{0.50, 0.10}
	r, err := tb.RunSynth(opt)
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
	if pct := get("synth_argmax_match_pct"); pct != 100 {
		t.Fatalf("refined argmax matches full on %.0f%% of scenes, want 100%%", pct)
	}
	if a := get("synth_localize_allocs"); a > 2 {
		t.Fatalf("staged Localize allocs %.0f/op, want ≤2", a)
	}
	// Speedups are hard-gated at ≥5x in core (TestSynthGridSpeedupGate,
	// single thread, best-of); here just require the experiment to
	// report a real win on the full pipeline scenes too.
	if sp := get("synth_speedup_1w"); sp < 3 {
		t.Fatalf("single-worker surface speedup %.1fx on testbed scenes, want ≥3x", sp)
	}
	// The staged estimator must not lose accuracy against the seed
	// estimator on the same scenes (identical is typical; allow slack
	// for hill climbs that settle on the far side of the same peak).
	grid, seed := get("synth_median_err_grid_cm"), get("synth_median_err_seed_cm")
	if grid > seed+25 {
		t.Fatalf("staged estimator median error %.0f cm vs seed %.0f cm", grid, seed)
	}
}

// TestSynthRefinedArgmaxExactOnTestbed is the tentpole's exactness
// sweep: on every testbed client scene (all 41 positions, all six APs
// contributing, plus every leading 3-AP combination), the
// coarse-to-fine screen must return exactly the full-resolution
// argmax cell at the paper's 10 cm pitch.
func TestSynthRefinedArgmaxExactOnTestbed(t *testing.T) {
	tb := New()
	aOpt := DefaultAccuracyOptions()
	specs, _, err := tb.SpectraForAll(aOpt)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: 0.10, Cache: core.NewSynthCache()})
	if err != nil {
		t.Fatal(err)
	}
	combos := [][]int{{0, 1, 2, 3, 4, 5}}
	combos = append(combos, Combinations(len(tb.Sites), 3)[:4]...)
	checked := 0
	for ci := range specs {
		for _, combo := range combos {
			scene := make([]core.APSpectrum, len(combo))
			for i, si := range combo {
				scene[i] = core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[ci][si]}
			}
			full, err := sg.FullArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			refined, err := sg.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			if full != refined {
				t.Fatalf("client %d combo %v: refined argmax %d != full argmax %d", ci, combo, refined, full)
			}
			checked++
		}
	}
	t.Logf("refined == full argmax on all %d testbed scenes", checked)
}
