package testbed

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/music"
)

// calibratedCorrelation is the correlation matrix of a raw frame's
// calibrated snapshots in the pipeline's window.
func calibratedCorrelation(streams [][]complex128, cfg core.Config, ap *core.AP) (*mat.Matrix, error) {
	snaps, err := music.CalibratedSnapshotsWS(nil, streams, core.DefaultSampleOffset, cfg.MaxSamples, ap.Calibration)
	if err != nil {
		return nil, err
	}
	return music.CorrelationMatrixWS(nil, snaps)
}

// oracleProcessAP is the per-AP half of the full pipeline composed from
// the oracle functions alone: closure MUSIC (bit-identical to the
// sum-of-squares kernel) over each frame's noise subspace, §2.4
// suppression, the scalar Eq. 7 weighting, and the closure-Bartlett
// mirror vote.
func oracleProcessAP(ap *core.AP, frames []core.FrameCapture, cfg core.Config) (*music.Spectrum, error) {
	a := ap.Array
	if len(frames) > 3 {
		frames = frames[:3]
	}
	spectra := make([]*music.Spectrum, len(frames))
	for i, f := range frames {
		r, err := calibratedCorrelation(f.Streams[:a.N], cfg, ap)
		if err != nil {
			return nil, err
		}
		if cfg.ForwardBackward {
			r = music.ForwardBackwardWS(nil, r)
		}
		rs, err := music.SpatialSmoothWS(nil, r, cfg.SmoothingGroups)
		if err != nil {
			return nil, err
		}
		noise, _, _, err := music.SubspacesWS(nil, rs, music.DefaultSignalThresholdFrac, rs.Rows/2)
		if err != nil {
			return nil, err
		}
		spectra[i] = music.MUSIC(noise, func(theta float64) []complex128 {
			return a.SteeringVectorRow(theta, cfg.Wavelength)[:rs.Rows]
		}, music.DefaultBins)
	}
	out := core.SuppressMultipath(spectra, core.DefaultPeakMatchTolDeg)
	out.ApplyGeometryWeighting(a.Orient)
	if a.NinthAntenna {
		rFull, err := calibratedCorrelation(frames[0].Streams[:a.NumElements()], cfg, ap)
		if err != nil {
			return nil, err
		}
		music.SymmetryRemoval(out, a, rFull, cfg.Wavelength)
	}
	return out.Normalize(), nil
}

// TestLagScansExactOn205Scenes is the lag-domain scans' fix-level pin.
// The spectra of every (client, site) pair are computed twice from the
// same captures — by the pipeline (lag-domain MUSIC and Bartlett, vote
// and weight tables) and by oracleProcessAP, whose closure scans are
// bit-identical to the sum-of-squares kernels and whose vote and
// weighting are the scalar originals. Over all 205 scenes the refined
// argmax cell must be the same and the fix within 1e-9 m; the spectra
// themselves stay within the scans' 1e-9 bound.
func TestLagScansExactOn205Scenes(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	d := tb.Draw(opt)
	lagSpecs, err := d.Spectra(opt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	// The same captures, uncut, through the oracle.
	refSpecs := make([][]*music.Spectrum, len(d.Cut))
	tb.drawFrames(opt, tb.Model.Receive, func(ci, si int, frames []core.FrameCapture) {
		if si == 0 {
			refSpecs[ci] = make([]*music.Spectrum, len(d.APs))
		}
		if refSpecs[ci][si], err = oracleProcessAP(d.APs[si], frames, opt.Pipeline); err != nil {
			t.Fatal(err)
		}
	})
	var worstBin float64
	for ci := range refSpecs {
		for si := range refSpecs[ci] {
			for b, want := range refSpecs[ci][si].P {
				worstBin = math.Max(worstBin, math.Abs(lagSpecs[ci][si].P[b]-want))
			}
		}
	}
	if worstBin > 1e-9 {
		t.Fatalf("combined spectra deviate %g of unit max from the sum-of-squares pipeline", worstBin)
	}

	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Cache: core.NewSynthCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	var worstFix float64
	for ci := range refSpecs {
		for _, combo := range SceneCombos() {
			lag, ref := tb.Scene(lagSpecs[ci], combo), tb.Scene(refSpecs[ci], combo)
			gotCell, err := sg.RefinedArgmaxCell(lag)
			if err != nil {
				t.Fatal(err)
			}
			wantCell, err := sg.RefinedArgmaxCell(ref)
			if err != nil {
				t.Fatal(err)
			}
			if gotCell != wantCell {
				t.Fatalf("client %d combo %v: argmax cell %d, sum-of-squares pipeline %d", ci, combo, gotCell, wantCell)
			}
			got, err := sg.Localize(lag)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sg.Localize(ref)
			if err != nil {
				t.Fatal(err)
			}
			d := got.Dist(want)
			if d > 1e-9 {
				t.Fatalf("client %d combo %v: fix %v is %g m from the sum-of-squares pipeline's %v", ci, combo, got, d, want)
			}
			worstFix = math.Max(worstFix, d)
			checked++
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	t.Logf("all %d scenes keep their argmax cell; max fix displacement %.3g m, max combined-spectrum deviation %.3g", checked, worstFix, worstBin)
}
