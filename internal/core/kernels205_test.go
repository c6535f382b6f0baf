package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testbed"
)

// TestKernelsExactOn205Scenes is the synthesis kernels' exactness pin
// at full testbed scale: over all 205 scenes (41 clients × [all-six plus
// four 3-AP combos]) the fast kernel stack — adaptive heap-ordered
// branch-and-bound pick plus rotation-guarded hill climb — must produce
// the bit-identical refined argmax cell and localized fix of the oracle
// pair (linear bound scan + scalar climb). No tolerance: the kernels
// claim exact replacement, not approximation.
func TestKernelsExactOn205Scenes(t *testing.T) {
	tb := testbed.New()
	specs, _, err := tb.SpectraForAll(testbed.DefaultAccuracyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Workers: 1, Cache: core.NewSynthCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := fast.WithOracles(true, true)
	combos := [][]int{{0, 1, 2, 3, 4, 5}}
	combos = append(combos, testbed.Combinations(len(tb.Sites), 3)[:4]...)
	checked := 0
	for ci := range specs {
		for _, combo := range combos {
			scene := make([]core.APSpectrum, len(combo))
			for i, si := range combo {
				scene[i] = core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[ci][si]}
			}
			gotCell, err := fast.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			wantCell, err := ref.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			if gotCell != wantCell {
				t.Fatalf("client %d combo %v: fast argmax cell %d != reference %d", ci, combo, gotCell, wantCell)
			}
			got, err := fast.Localize(scene)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Localize(scene)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("client %d combo %v: fast fix %v != reference %v — not bit-identical", ci, combo, got, want)
			}
			checked++
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	t.Logf("fast kernels bit-identical to the oracles on all %d testbed scenes", checked)
}
