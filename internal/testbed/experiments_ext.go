package testbed

import (
	"math"
	"math/rand"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/stats"
)

// RunCircular compares an 8-element circular array against the linear
// default (the §6 discussion): the circular array resolves the full
// 360° natively — no mirror ambiguity — at the cost of resolution for
// the same element count, and spatial smoothing does not apply to its
// geometry so coherent multipath hurts it more.
func (tb *Testbed) RunCircular(seed int64) (*Report, error) {
	capOpt := DefaultCaptureOptions()
	capOpt.Frames, capOpt.MoveSigma = 1, 0
	r := &Report{ID: "circular", Title: "linear vs circular array geometry (§6 discussion)"}
	r.Addf("%-10s %14s %14s %16s", "geometry", "AoA err med", "AoA err p90", "mirror resolved")

	for _, mode := range []string{"linear", "circular"} {
		rng := rand.New(rand.NewSource(seed))
		var errs []float64
		resolved := 0
		trials := 0
		for i := 0; i < 30; i++ {
			site := tb.Sites[rng.Intn(len(tb.Sites))]
			client := tb.Clients[rng.Intn(len(tb.Clients))]
			offAxis := math.Abs(math.Remainder(site.Pos.Bearing(client)-site.Orient, math.Pi))
			if offAxis < geom.Rad(20) {
				continue
			}
			truth := site.Pos.Bearing(client)
			arr := tb.NewArray(site, capOpt)
			if mode == "circular" {
				// Same aperture budget: 8 elements on a circle of
				// radius λ/2.
				arr = array.NewCircular(site.Pos, tb.Wavelength/2, 8)
			}
			streams := tb.capture(tb.Model.Receive, arr, client, capOpt, rng)[0].Streams
			var spec *music.Spectrum
			var err error
			if mode == "linear" {
				spec, err = music.ComputeSpectrumWS(nil, arr, streams[:arr.N], tb.spectrumOptions())
			} else {
				spec = circularSpectrum(tb, arr, streams)
			}
			if err != nil {
				return nil, err
			}
			e := peakErrorDeg(spec, truth)
			if math.IsInf(e, 1) {
				continue
			}
			errs = append(errs, e)
			trials++
			// Mirror resolved: spectrum value at the mirror bearing is
			// clearly below the true bearing's.
			mirror := geom.NormalizeAngle(2*site.Orient - truth)
			if spec.At(mirror) < 0.5*spec.At(truth) {
				resolved++
			}
		}
		s := stats.Summarize(errs)
		r.Addf("%-10s %12.1f°  %12.1f°  %13d/%d", mode, s.Median, s.P90, resolved, trials)
	}
	return r, nil
}

// circularSpectrum computes plain MUSIC on a circular array: spatial
// smoothing needs a translational-invariant (linear) geometry, so the
// circular array runs unsmoothed — exactly the §6 trade-off.
func circularSpectrum(tb *Testbed, arr *array.Array, streams [][]complex128) *music.Spectrum {
	opt := tb.spectrumOptions()
	snaps := music.SnapshotsAt(streams, opt.SampleOffset, opt.MaxSamples)
	r, err := music.CorrelationMatrixWS(nil, snaps)
	if err != nil {
		return music.NewSpectrum(music.DefaultBins)
	}
	noise, _, _, err := music.SubspacesWS(nil, r, 0.05, arr.N/2)
	if err != nil {
		return music.NewSpectrum(music.DefaultBins)
	}
	return music.MUSIC(noise, func(th float64) []complex128 {
		return arr.SteeringVector(th, tb.Wavelength)
	}, music.DefaultBins)
}

// RunCalibrationSweep quantifies how residual phase-calibration error
// degrades localization — the engineering requirement behind §3's
// procedure. Residual per-element phase errors of the given standard
// deviations are injected after calibration and the 3-AP accuracy
// measured.
func (tb *Testbed) RunCalibrationSweep(seed int64) (*Report, error) {
	r := &Report{ID: "calib", Title: "localization vs residual calibration error (3 APs)"}
	r.Addf("%-18s %10s %10s", "residual σ (rad)", "median", "mean")
	siteIdx := []int{0, 2, 4}
	capOpt := DefaultCaptureOptions()
	cfg := core.DefaultConfig(tb.Wavelength)
	clients := sampleClients(tb.Clients, 10)

	for _, sigma := range []float64{0, 0.05, 0.15, 0.4, 1.0} {
		rng := rand.New(rand.NewSource(seed))
		var errs []float64
		for _, c := range clients {
			var aps []*core.AP
			var captures [][]core.FrameCapture
			for _, si := range siteIdx {
				site := tb.Sites[si]
				arr := tb.NewArray(site, capOpt)
				// True hardware offsets, random per AP; the same array
				// instance must capture the frames so the offsets are
				// baked into the samples.
				arr.RandomizePhaseOffsets(rng)
				// Measured calibration = truth + residual error.
				calib := make([]float64, arr.NumElements())
				for k := 1; k < len(calib); k++ {
					calib[k] = arr.PhaseOffsets[k] + rng.NormFloat64()*sigma
				}
				aps = append(aps, &core.AP{Array: arr, Calibration: calib})
				captures = append(captures, Cut(tb.capture(tb.Model.Receive, arr, c, capOpt, rng)))
			}
			pos, _, err := core.LocateClient(aps, captures, tb.Plan.Min, tb.Plan.Max, cfg)
			if err != nil {
				return nil, err
			}
			errs = append(errs, pos.Dist(c)*100)
		}
		s := stats.Summarize(errs)
		r.Addf("%-18.2f %8.0fcm %8.0fcm", sigma, s.Median, s.Mean)
	}
	return r, nil
}
