package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/stats"
)

// cdfPoints are the error abscissae (cm) reported alongside each CDF,
// matching the axis range of Figures 13 and 15.
var cdfPoints = []float64{10, 20, 50, 100, 200, 500}

// AccuracyOptions tunes the big localization sweeps.
type AccuracyOptions struct {
	// APCounts lists the AP subset sizes to evaluate (paper: 3,4,5,6).
	APCounts []int
	// MaxCombos caps the AP combinations per count (0 = all); lets
	// benchmarks trade coverage for time.
	MaxCombos int
	// MaxClients caps the evaluated clients (0 = all 41).
	MaxClients int
	// Seed drives noise and movement.
	Seed int64
	// Capture are the radio settings.
	Capture CaptureOptions
	// Pipeline is the processing configuration.
	Pipeline core.Config
}

// DefaultAccuracyOptions returns the full-paper sweep with the full
// ArrayTrack pipeline (Figure 15).
func DefaultAccuracyOptions() AccuracyOptions {
	tbWavelength := New().Wavelength
	return AccuracyOptions{
		APCounts: []int{3, 4, 5, 6},
		Seed:     1,
		Capture:  DefaultCaptureOptions(),
		Pipeline: core.DefaultConfig(tbWavelength),
	}
}

// SpectraForAll captures and processes spectra for every (client, site)
// pair once; the combination sweep then reuses them. Row i corresponds
// to client i, column j to site j.
func (tb *Testbed) SpectraForAll(opt AccuracyOptions) ([][]*music.Spectrum, []geom.Point, error) {
	clients := sampleClients(tb.Clients, opt.MaxClients)
	rng := rand.New(rand.NewSource(opt.Seed))
	specs := make([][]*music.Spectrum, len(clients))
	for ci, c := range clients {
		specs[ci] = make([]*music.Spectrum, len(tb.Sites))
		for si, site := range tb.Sites {
			frames := Cut(tb.CaptureClient(c, site, opt.Capture, rng))
			ap := &core.AP{Array: tb.NewArray(site, opt.Capture)}
			s, err := core.ProcessAP(ap, frames, opt.Pipeline)
			if err != nil {
				return nil, nil, fmt.Errorf("client %d site %d: %w", ci, si, err)
			}
			specs[ci][si] = s
		}
	}
	return specs, clients, nil
}

// sampleClients picks up to max clients spread evenly over the
// population (all of them when max ≤ 0), so capped runs stay
// representative rather than concentrating on the hand-picked hard
// spots at the front of the list.
func sampleClients(all []geom.Point, max int) []geom.Point {
	if max <= 0 || max >= len(all) {
		return all
	}
	out := make([]geom.Point, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, all[i*len(all)/max])
	}
	return out
}

// AccuracyResult is the per-AP-count error sample from a sweep.
type AccuracyResult struct {
	// ErrorsCM maps AP count to the location error sample (cm) across
	// all clients and combinations.
	ErrorsCM map[int][]float64
}

// RunAccuracy executes the localization sweep underlying Figures 13
// and 15: spectra per (client, site), then maximum-likelihood synthesis
// over every AP combination of each requested size — through
// Pipeline.Synthesize, the synthesis stage every service runs.
func (tb *Testbed) RunAccuracy(opt AccuracyOptions) (*AccuracyResult, []geom.Point, error) {
	specs, clients, err := tb.SpectraForAll(opt)
	if err != nil {
		return nil, nil, err
	}
	res := &AccuracyResult{ErrorsCM: make(map[int][]float64)}
	pipe := core.NewPipeline(opt.Pipeline)
	for _, k := range opt.APCounts {
		combos := Combinations(len(tb.Sites), k)
		if opt.MaxCombos > 0 && len(combos) > opt.MaxCombos {
			combos = combos[:opt.MaxCombos]
		}
		for ci, c := range clients {
			for _, combo := range combos {
				aps := make([]core.APSpectrum, len(combo))
				for i, si := range combo {
					aps[i] = core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[ci][si]}
				}
				pos, err := pipe.Synthesize(aps, tb.Plan.Min, tb.Plan.Max)
				if err != nil {
					return nil, nil, err
				}
				res.ErrorsCM[k] = append(res.ErrorsCM[k], pos.Dist(c)*100)
			}
		}
	}
	return res, clients, nil
}

func accuracyReport(id, title string, res *AccuracyResult, counts []int) *Report {
	r := &Report{ID: id, Title: title}
	r.Addf("%-6s %8s %8s %8s %8s %8s", "APs", "median", "mean", "p90", "p95", "p98")
	for _, k := range counts {
		s := stats.Summarize(res.ErrorsCM[k])
		r.Addf("%-6d %7.0fcm %7.0fcm %7.0fcm %7.0fcm %7.0fcm", k, s.Median, s.Mean, s.P90, s.P95, s.P98)
	}
	for _, k := range counts {
		cdf := stats.NewCDF(res.ErrorsCM[k])
		r.Addf("CDF %d APs:", k)
		for _, x := range cdfPoints {
			r.Addf("  P(err ≤ %4.0f cm) = %.3f", x, cdf.At(x))
		}
	}
	return r
}

// RunFig13 regenerates Figure 13: CDFs of location error from
// unoptimized raw AoA spectra (static clients, single frame, no
// weighting/suppression/symmetry removal) across all combinations of
// 3–6 APs.
func (tb *Testbed) RunFig13(opt AccuracyOptions) (*Report, *AccuracyResult, error) {
	opt.Pipeline = core.UnoptimizedConfig(tb.Wavelength)
	opt.Capture.Frames = 1
	opt.Capture.MoveSigma = 0
	res, _, err := tb.RunAccuracy(opt)
	if err != nil {
		return nil, nil, err
	}
	return accuracyReport("fig13", "location error CDF, unoptimized raw spectra (static)", res, opt.APCounts), res, nil
}

// RunFig15 regenerates Figure 15: CDFs of location error with the full
// ArrayTrack pipeline on semi-static data (three frames with ≤5 cm
// movements) across all combinations of 3–6 APs.
func (tb *Testbed) RunFig15(opt AccuracyOptions) (*Report, *AccuracyResult, error) {
	opt.Pipeline = core.DefaultConfig(tb.Wavelength)
	if opt.Capture.Frames < 2 {
		opt.Capture.Frames = 3
	}
	res, _, err := tb.RunAccuracy(opt)
	if err != nil {
		return nil, nil, err
	}
	return accuracyReport("fig15", "location error CDF, full ArrayTrack (semi-static)", res, opt.APCounts), res, nil
}

// RunFig16 regenerates Figure 16: location error with 4-, 6-, and
// 8-antenna APs, all six APs cooperating.
func (tb *Testbed) RunFig16(opt AccuracyOptions) (*Report, error) {
	r := &Report{ID: "fig16", Title: "location error vs number of AP antennas (6 APs)"}
	r.Addf("%-10s %8s %8s %8s", "antennas", "median", "mean", "p95")
	for _, nAnt := range []int{4, 6, 8} {
		o := opt
		o.APCounts = []int{6}
		o.Capture.Antennas = nAnt
		o.Pipeline = core.DefaultConfig(tb.Wavelength)
		res, _, err := tb.RunAccuracy(o)
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(res.ErrorsCM[6])
		r.Addf("%-10d %7.0fcm %7.0fcm %7.0fcm", nAnt, s.Median, s.Mean, s.P95)
	}
	return r, nil
}

// RunFig18 regenerates Figure 18: robustness of the full pipeline to a
// 1.5 m AP–client height difference and to a 90° antenna polarization
// mismatch, against the baseline setup (6 APs, 8 antennas).
func (tb *Testbed) RunFig18(opt AccuracyOptions) (*Report, error) {
	r := &Report{ID: "fig18", Title: "robustness: height difference and antenna orientation (6 APs)"}
	cases := []struct {
		name   string
		mutate func(*CaptureOptions)
	}{
		{"original", func(*CaptureOptions) {}},
		{"height +1.5m", func(c *CaptureOptions) { c.HeightDiff = 1.5 }},
		{"orientation 90°", func(c *CaptureOptions) { c.PolarizationLossDB = 20 }},
	}
	r.Addf("%-18s %8s %8s %8s", "condition", "median", "mean", "p95")
	for _, cse := range cases {
		o := opt
		o.APCounts = []int{6}
		o.Pipeline = core.DefaultConfig(tb.Wavelength)
		cse.mutate(&o.Capture)
		res, _, err := tb.RunAccuracy(o)
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(res.ErrorsCM[6])
		r.Addf("%-18s %7.0fcm %7.0fcm %7.0fcm", cse.name, s.Median, s.Mean, s.P95)
	}
	return r, nil
}

// RunFig14 regenerates Figure 14: likelihood heatmaps for one client as
// the number of cooperating APs grows from one to six, rendered as
// ASCII maps ('X' marks ground truth).
func (tb *Testbed) RunFig14(clientIdx int, seed int64) (*Report, error) {
	if clientIdx < 0 || clientIdx >= len(tb.Clients) {
		clientIdx = 8
	}
	client := tb.Clients[clientIdx]
	rng := rand.New(rand.NewSource(seed))
	capOpt := DefaultCaptureOptions()
	pipe := core.NewPipeline(core.DefaultConfig(tb.Wavelength))

	var specs []core.APSpectrum
	r := &Report{ID: "fig14", Title: fmt.Sprintf("likelihood heatmaps, client %d at %v", clientIdx, client)}
	for si, site := range tb.Sites {
		frames := Cut(tb.CaptureClient(client, site, capOpt, rng))
		ap := &core.AP{Array: tb.NewArray(site, capOpt)}
		s, err := pipe.ProcessAP(ap, frames)
		if err != nil {
			return nil, err
		}
		specs = append(specs, core.APSpectrum{Pos: site.Pos, Spectrum: s})

		// The product-domain heatmap is for the ASCII rendering only;
		// the estimate comes from the pipeline.
		h, err := core.ComputeHeatmap(specs, tb.Plan.Min, tb.Plan.Max, 0.5)
		if err != nil {
			return nil, err
		}
		pos, err := pipe.Synthesize(specs, tb.Plan.Min, tb.Plan.Max)
		if err != nil {
			return nil, err
		}
		r.Addf("--- %d AP(s): estimate %v, error %.0f cm ---", si+1, pos, pos.Dist(client)*100)
		r.Lines = append(r.Lines, h.ASCII(map[byte]geom.Point{'X': client}))
	}
	return r, nil
}

// RunBaselineComparison pits ArrayTrack against the RSS comparators:
// log-distance trilateration and k-NN fingerprinting over the same
// clients and APs. RSS values come from the same ray-traced channel
// (sum of path powers plus shadowing, quantized to whole dB).
func (tb *Testbed) RunBaselineComparison(opt AccuracyOptions) (*Report, error) {
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	clients := sampleClients(tb.Clients, opt.MaxClients)

	rssAt := func(p geom.Point) []float64 {
		out := make([]float64, len(tb.Sites))
		for si, site := range tb.Sites {
			paths := tb.Model.Paths(p, site.Pos, 0)
			var pow float64
			for _, pp := range paths {
				a := real(pp.Gain)*real(pp.Gain) + imag(pp.Gain)*imag(pp.Gain)
				pow += a
			}
			rss := opt.Capture.TxPowerDBm + 10*log10(pow) + rng.NormFloat64()*2.5
			out[si] = baseline.Quantize(rss)
		}
		return out
	}

	// Offline survey on a 2 m grid for fingerprinting + model fit.
	var db baseline.FingerprintDB
	var dists, rssSamples []float64
	for x := 1.0; x < FloorW; x += 2 {
		for y := 1.0; y < FloorH; y += 2 {
			p := geom.Pt(x, y)
			v := rssAt(p)
			db.Add(baseline.Fingerprint{Pos: p, RSS: v})
			for si := range tb.Sites {
				dists = append(dists, p.Dist(tb.Sites[si].Pos))
				rssSamples = append(rssSamples, v[si])
			}
		}
	}
	model, err := baseline.FitLogDistance(dists, rssSamples)
	if err != nil {
		return nil, err
	}

	var triErr, fpErr []float64
	for _, c := range clients {
		v := rssAt(c)
		var readings []baseline.RSSReading
		for si := range tb.Sites {
			readings = append(readings, baseline.RSSReading{AP: tb.Sites[si].Pos, RSSdBm: v[si]})
		}
		if p, err := baseline.Trilaterate(readings, model, tb.Plan.Min, tb.Plan.Max); err == nil {
			triErr = append(triErr, p.Dist(c)*100)
		}
		if p, err := db.Locate(v, 4); err == nil {
			fpErr = append(fpErr, p.Dist(c)*100)
		}
	}

	// ArrayTrack with all six APs on the same clients.
	o := opt
	o.APCounts = []int{6}
	o.Pipeline = core.DefaultConfig(tb.Wavelength)
	res, _, err := tb.RunAccuracy(o)
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "baseline", Title: "ArrayTrack vs RSS baselines (6 APs)"}
	r.Addf("%-24s %8s %8s  (fitted model: P0=%.1f dBm, n=%.2f)",
		"method", "median", "mean", model.P0dBm, model.Exponent)
	at := stats.Summarize(res.ErrorsCM[6])
	tri := stats.Summarize(triErr)
	fp := stats.Summarize(fpErr)
	r.Addf("%-24s %7.0fcm %7.0fcm", "ArrayTrack (AoA)", at.Median, at.Mean)
	r.Addf("%-24s %7.0fcm %7.0fcm", "RSS trilateration", tri.Median, tri.Mean)
	r.Addf("%-24s %7.0fcm %7.0fcm", "RSS fingerprint kNN", fp.Median, fp.Mean)
	return r, nil
}

func log10(x float64) float64 {
	if x <= 0 {
		return -30
	}
	return math.Log10(x)
}
