package testbed

import (
	"slices"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/music"
)

// countingEstimator is MUSIC, counting the frame spectra it is asked for.
type countingEstimator struct{ calls int }

func (c *countingEstimator) Spectrum(ws *music.Workspace, a *array.Array, snaps [][]complex128, opt music.Options) (*music.Spectrum, error) {
	c.calls++
	return music.MUSICEstimator.Spectrum(ws, a, snaps, opt)
}

// TestProcessAPThirdFrameOnDemandOn205Scenes pins the per-AP stage's
// early exit on the draws of seeds 1 and 2: frame 2's spectrum is
// computed only while frame 1 leaves a primary peak unmatched, yet for
// every (client, site) pair ProcessAP is == bin for bin to CombineAP
// over all three frames' FrameSpectrum. The count of spectra computed is
// pinned: 246 pairs × frames 0 and 1, plus frame 2 at the pairs frame 1
// does not settle.
func TestProcessAPThirdFrameOnDemandOn205Scenes(t *testing.T) {
	tb := New()
	for _, tc := range []struct {
		seed        int64
		calls, full int
	}{
		{1, 608, 738},
		{2, 610, 738},
	} {
		opt := DefaultAccuracyOptions()
		opt.Seed = tc.seed
		d := tb.Draw(opt)
		est := &countingEstimator{}
		cfg := opt.Pipeline
		cfg.Estimator = est
		p := core.NewPipeline(cfg)
		eager := core.NewPipeline(opt.Pipeline)
		full := 0
		for ci, row := range d.Cut {
			for si, frames := range row {
				got, err := p.ProcessAP(d.APs[si], frames)
				if err != nil {
					t.Fatal(err)
				}
				spectra := make([]*music.Spectrum, len(frames))
				for k, f := range frames {
					if spectra[k], err = eager.FrameSpectrum(nil, d.APs[si], f); err != nil {
						t.Fatal(err)
					}
				}
				full += len(spectra)
				want, err := eager.CombineAP(nil, d.APs[si], frames, spectra)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.P, want.P) {
					t.Fatalf("seed %d client %d site %d: ProcessAP differs from CombineAP over every frame", tc.seed, ci, si)
				}
			}
		}
		t.Logf("seed %d: %d of %d frame spectra computed", tc.seed, est.calls, full)
		if est.calls != tc.calls || full != tc.full {
			t.Errorf("seed %d: %d of %d frame spectra computed, want %d of %d", tc.seed, est.calls, full, tc.calls, tc.full)
		}
	}
}
