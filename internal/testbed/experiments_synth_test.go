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
	specs, _, err := tb.SpectraForAll(aOpt)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: 0.10, Cache: core.NewSynthCache(0)})
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
