package testbed

import (
	"testing"

	"repro/internal/core"
)

// TestSynthRefinedArgmaxExactOnTestbed is the tentpole's exactness
// sweep: on every testbed client scene (all 41 positions, all six APs
// contributing, plus every leading 3-AP combination), the
// coarse-to-fine screen must return exactly the full-resolution
// argmax cell at the paper's 10 cm pitch.
func TestSynthRefinedArgmaxExactOnTestbed(t *testing.T) {
	tb := New()
	aOpt := DefaultAccuracyOptions()
	specs, err := tb.Draw(aOpt).Spectra(aOpt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: 0.10, Cache: core.NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for ci := range specs {
		for _, combo := range SceneCombos() {
			scene := tb.Scene(specs[ci], combo)
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
