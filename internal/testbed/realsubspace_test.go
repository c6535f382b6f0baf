package testbed

import (
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/music"
)

// hermitianEstimator is the MUSIC estimator as it stood before the
// real-arithmetic eigen split: the row's complex correlation, forward–
// backward averaging, smoothing, and the subspaces taken by SubspacesWS
// (the complex Hermitian solver). Test-only — the pipeline has no switch
// that selects it.
type hermitianEstimator struct{}

func (hermitianEstimator) Spectrum(ws *music.Workspace, a *array.Array, snaps [][]complex128, opt music.Options) (*music.Spectrum, error) {
	row := make([][]complex128, len(snaps))
	for t, x := range snaps {
		row[t] = x[:a.N]
	}
	r, err := music.CorrelationMatrixWS(ws, row)
	if err != nil {
		return nil, err
	}
	if opt.ForwardBackward {
		r = music.ForwardBackwardWS(ws, r)
	}
	rs, err := music.SpatialSmoothWS(ws, r, opt.SmoothingGroups)
	if err != nil {
		return nil, err
	}
	noise, _, _, err := music.SubspacesWS(ws, rs, opt.SignalThresholdFrac, rs.Rows/2)
	if err != nil {
		return nil, err
	}
	return music.MUSICWithTableWS(ws, noise, opt.Steering.Table(a, opt.Wavelength, music.DefaultBins)), nil
}

// TestRealSubspaceExactOn205Scenes is the real-arithmetic eigen split's
// fix-level pin: Pipeline.Locate on every one of the 205 scenes, against
// the same pipeline with hermitianEstimator in place of the default. The
// two eigenvector bases differ, the subspaces do not, so the bar is the
// scans' own (PR 12): per-AP spectra within 1e-9 of their unit maximum,
// the same refined argmax cell, the fix within 1e-9 m. A scene that
// misses fails the test by name with both fixes shown; none is
// tolerated.
func TestRealSubspaceExactOn205Scenes(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	d := tb.Draw(opt)
	cut := d.Cut
	p := core.NewPipeline(opt.Pipeline)
	refCfg := opt.Pipeline
	refCfg.Estimator = hermitianEstimator{}
	ref := core.NewPipeline(refCfg)
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Cache: core.NewSynthCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, identical := 0, 0
	var worstBin, worstFix float64
	for ci := range cut {
		for _, combo := range SceneCombos() {
			sceneAPs := make([]*core.AP, len(combo))
			caps := make([][]core.FrameCapture, len(combo))
			for i, si := range combo {
				sceneAPs[i], caps[i] = d.APs[si], cut[ci][si]
			}
			got, gotSpecs, err := p.Locate(sceneAPs, caps, tb.Plan.Min, tb.Plan.Max)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSpecs, err := ref.Locate(sceneAPs, caps, tb.Plan.Min, tb.Plan.Max)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantSpecs {
				for b, w := range wantSpecs[i].Spectrum.P {
					worstBin = math.Max(worstBin, math.Abs(gotSpecs[i].Spectrum.P[b]-w))
				}
			}
			gotCell, err := sg.RefinedArgmaxCell(gotSpecs)
			if err != nil {
				t.Fatal(err)
			}
			wantCell, err := sg.RefinedArgmaxCell(wantSpecs)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			d := got.Dist(want)
			switch {
			case gotCell != wantCell:
				t.Errorf("MISS client %d combo %v: argmax cell %d through the real form, %d through the Hermitian solver", ci, combo, gotCell, wantCell)
			case d > 1e-9:
				t.Errorf("MISS client %d combo %v: the hill climb forks in cell %d — the real form fixes at %v, the Hermitian solver at %v, %.3g m apart",
					ci, combo, gotCell, got, want, d)
			case got == want:
				identical++
			}
			worstFix = math.Max(worstFix, d)
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	if worstBin > 1e-9 {
		t.Errorf("per-AP spectra deviate %g of unit max from the Hermitian-solver pipeline, want ≤ 1e-9", worstBin)
	}
	t.Logf("%d scenes: all keep their argmax cell; max fix displacement %.3g m (%d bit-identical), max per-AP spectrum deviation %.3g of unit max",
		checked, worstFix, identical, worstBin)
}
