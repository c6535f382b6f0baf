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
	"repro/internal/wifi"
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
	return AccuracyOptions{
		APCounts: []int{3, 4, 5, 6},
		Seed:     1,
		Capture:  DefaultCaptureOptions(),
		Pipeline: core.DefaultConfig(wifi.Wavelength()),
	}
}

// Draw is one sweep's data: every (client, site) pair's frames, drawn
// once and read by every pipeline run over it. The frames come from one
// rng seeded with the sweep's Seed, client-major then site, so a draw
// depends on Seed, Capture and MaxClients alone, never on the pipeline.
type Draw struct {
	// Clients are the sampled client positions, the rows of Cut.
	Clients []geom.Point
	// Cut[ci][si] are Clients[ci]'s frames at site si as the AP ships
	// them (Cut). Readers must not write them.
	Cut [][][]core.FrameCapture
	// APs holds one AP per site, in the capture's geometry.
	APs []*core.AP
}

// Draw captures every (client, site) pair of the sweep opt describes.
// It keeps only the cut frames: the pipelines read nothing else.
func (tb *Testbed) Draw(opt AccuracyOptions) *Draw {
	d := &Draw{}
	d.Clients = tb.drawFrames(opt, tb.Model.Receive, func(ci, si int, frames []core.FrameCapture) {
		if si == 0 {
			d.Cut = append(d.Cut, make([][]core.FrameCapture, len(tb.Sites)))
		}
		d.Cut[ci][si] = Cut(frames)
	})
	for _, site := range tb.Sites {
		d.APs = append(d.APs, &core.AP{Array: tb.NewArray(site, opt.Capture)})
	}
	return d
}

// drawFrames is Draw's capture loop, the one place its rng order lives:
// it captures every (client, site) pair of the sweep, client-major then
// site, through receive and hands visit each pair's uncut frames. It
// returns the sampled clients.
func (tb *Testbed) drawFrames(opt AccuracyOptions, receive receiver, visit func(ci, si int, frames []core.FrameCapture)) []geom.Point {
	clients := sampleClients(tb.Clients, opt.MaxClients)
	rng := rand.New(rand.NewSource(opt.Seed))
	for ci, c := range clients {
		for si, site := range tb.Sites {
			visit(ci, si, tb.capture(receive, tb.NewArray(site, opt.Capture), c, opt.Capture, rng))
		}
	}
	return clients
}

// SceneCombos are the AP combinations of the 205-scene exactness sweep
// (41 clients × these 5): all six sites, then the first four 3-site
// combinations.
func SceneCombos() [][]int {
	return append([][]int{{0, 1, 2, 3, 4, 5}}, Combinations(6, 3)[:4]...)
}

// Scene pairs one client's per-site spectra with the sites of combo.
func (tb *Testbed) Scene(specs []*music.Spectrum, combo []int) []core.APSpectrum {
	scene := make([]core.APSpectrum, len(combo))
	for i, si := range combo {
		scene[i] = core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[si]}
	}
	return scene
}

// Spectra runs cfg's per-AP stage on every (client, site) pair of the
// draw's cut frames. Row i corresponds to client i, column j to site j.
func (d *Draw) Spectra(cfg core.Config) ([][]*music.Spectrum, error) {
	p := core.NewPipeline(cfg)
	specs := make([][]*music.Spectrum, len(d.Cut))
	for ci, row := range d.Cut {
		specs[ci] = make([]*music.Spectrum, len(row))
		for si, frames := range row {
			s, err := p.ProcessAP(d.APs[si], frames)
			if err != nil {
				return nil, fmt.Errorf("client %d site %d: %w", ci, si, err)
			}
			specs[ci][si] = s
		}
	}
	return specs, nil
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
	// all clients and combinations, client-major: client i's errors over
	// the count's combinations, in Combinations order, then client i+1's.
	ErrorsCM map[int][]float64
}

// variant is one run of an accuracy runner: a change to the sweep's
// capture settings and one to its pipeline config, which starts from
// core.DefaultConfig. A nil change leaves the setting as it is.
type variant struct {
	name    string
	capture func(*CaptureOptions)
	config  func(*core.Config)
}

// runVariants runs every variant's sweep, out[i] being vs[i]'s: its
// pipeline's per-AP stage over the cut frames of its capture setting's
// draw, then every requested AP combination of every client through
// Pipeline.Synthesize, the synthesis stage every service runs. A variant
// whose capture setting is its predecessor's reuses that draw, so a
// runner lists the variants of one setting together and each setting is
// drawn once.
func (tb *Testbed) runVariants(opt AccuracyOptions, vs []variant) ([]*AccuracyResult, error) {
	out := make([]*AccuracyResult, len(vs))
	var d *Draw
	var drawn CaptureOptions
	for i, v := range vs {
		o := opt
		o.Pipeline = core.DefaultConfig(tb.Wavelength)
		if v.capture != nil {
			v.capture(&o.Capture)
		}
		if v.config != nil {
			v.config(&o.Pipeline)
		}
		if d == nil || o.Capture != drawn {
			d, drawn = tb.Draw(o), o.Capture
		}
		specs, err := d.Spectra(o.Pipeline)
		if err != nil {
			return nil, err
		}
		out[i] = &AccuracyResult{ErrorsCM: make(map[int][]float64)}
		pipe := core.NewPipeline(o.Pipeline)
		for _, k := range o.APCounts {
			combos := Combinations(len(tb.Sites), k)
			if o.MaxCombos > 0 && len(combos) > o.MaxCombos {
				combos = combos[:o.MaxCombos]
			}
			for ci, c := range d.Clients {
				for _, combo := range combos {
					pos, err := pipe.Synthesize(tb.Scene(specs[ci], combo), tb.Plan.Min, tb.Plan.Max)
					if err != nil {
						return nil, err
					}
					out[i].ErrorsCM[k] = append(out[i].ErrorsCM[k], pos.Dist(c)*100)
				}
			}
		}
	}
	return out, nil
}

// RunAccuracy executes the localization sweep underlying Figures 13
// and 15 with opt's own pipeline: spectra per (client, site), then
// maximum-likelihood synthesis over every AP combination of each
// requested size.
func (tb *Testbed) RunAccuracy(opt AccuracyOptions) (*AccuracyResult, []geom.Point, error) {
	res, err := tb.runVariants(opt, []variant{{config: func(c *core.Config) { *c = opt.Pipeline }}})
	if err != nil {
		return nil, nil, err
	}
	return res[0], sampleClients(tb.Clients, opt.MaxClients), nil
}

// cdfFigure runs one variant over opt's AP counts and reports its error
// summary and CDF per count.
func (tb *Testbed) cdfFigure(id, title string, opt AccuracyOptions, v variant) (*Report, *AccuracyResult, error) {
	all, err := tb.runVariants(opt, []variant{v})
	if err != nil {
		return nil, nil, err
	}
	res := all[0]
	r := &Report{ID: id, Title: title}
	r.Addf("%-6s %8s %8s %8s %8s %8s", "APs", "median", "mean", "p90", "p95", "p98")
	for _, k := range opt.APCounts {
		s := stats.Summarize(res.ErrorsCM[k])
		r.Addf("%-6d %7.0fcm %7.0fcm %7.0fcm %7.0fcm %7.0fcm", k, s.Median, s.Mean, s.P90, s.P95, s.P98)
	}
	for _, k := range opt.APCounts {
		cdf := stats.NewCDF(res.ErrorsCM[k])
		r.Addf("CDF %d APs:", k)
		for _, x := range cdfPoints {
			r.Addf("  P(err ≤ %4.0f cm) = %.3f", x, cdf.At(x))
		}
	}
	return r, res, nil
}

// RunFig13 regenerates Figure 13: CDFs of location error from
// unoptimized raw AoA spectra (static clients, single frame, no
// weighting/suppression/symmetry removal) across all combinations of
// 3–6 APs.
func (tb *Testbed) RunFig13(opt AccuracyOptions) (*Report, *AccuracyResult, error) {
	return tb.cdfFigure("fig13", "location error CDF, unoptimized raw spectra (static)", opt, variant{
		capture: func(c *CaptureOptions) { c.Frames, c.MoveSigma = 1, 0 },
		config:  func(c *core.Config) { *c = core.UnoptimizedConfig(c.Wavelength) },
	})
}

// RunFig15 regenerates Figure 15: CDFs of location error with the full
// ArrayTrack pipeline on semi-static data (three frames with ≤5 cm
// movements) across all combinations of 3–6 APs.
func (tb *Testbed) RunFig15(opt AccuracyOptions) (*Report, *AccuracyResult, error) {
	return tb.cdfFigure("fig15", "location error CDF, full ArrayTrack (semi-static)", opt, variant{capture: func(c *CaptureOptions) {
		if c.Frames < 2 {
			c.Frames = 3
		}
	}})
}

// sixAPReport runs the variants with all six APs cooperating and
// reports one row per variant: its name in a column of the given width
// headed label, then the median, mean and p95 error.
func (tb *Testbed) sixAPReport(id, title, label string, width int, opt AccuracyOptions, vs []variant) (*Report, error) {
	opt.APCounts = []int{6}
	res, err := tb.runVariants(opt, vs)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: id, Title: title}
	r.Addf("%-*s %8s %8s %8s", width, label, "median", "mean", "p95")
	for i, v := range vs {
		s := stats.Summarize(res[i].ErrorsCM[6])
		r.Addf("%-*s %7.0fcm %7.0fcm %7.0fcm", width, v.name, s.Median, s.Mean, s.P95)
	}
	return r, nil
}

// RunFig16 regenerates Figure 16: location error with 4-, 6-, and
// 8-antenna APs, all six APs cooperating.
func (tb *Testbed) RunFig16(opt AccuracyOptions) (*Report, error) {
	var vs []variant
	for _, n := range []int{4, 6, 8} {
		vs = append(vs, variant{name: fmt.Sprint(n), capture: func(c *CaptureOptions) { c.Antennas = n }})
	}
	return tb.sixAPReport("fig16", "location error vs number of AP antennas (6 APs)", "antennas", 10, opt, vs)
}

// RunFig18 regenerates Figure 18: robustness of the full pipeline to a
// 1.5 m AP–client height difference and to a 90° antenna polarization
// mismatch, against the baseline setup (6 APs, 8 antennas).
func (tb *Testbed) RunFig18(opt AccuracyOptions) (*Report, error) {
	return tb.sixAPReport("fig18", "robustness: height difference and antenna orientation (6 APs)", "condition", 18, opt, []variant{
		{name: "original"},
		{name: "height +1.5m", capture: func(c *CaptureOptions) { c.HeightDiff = 1.5 }},
		{name: "orientation 90°", capture: func(c *CaptureOptions) { c.PolarizationLossDB = 20 }},
	})
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
	opt.APCounts = []int{6}
	res, err := tb.runVariants(opt, []variant{{}})
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "baseline", Title: "ArrayTrack vs RSS baselines (6 APs)"}
	r.Addf("%-24s %8s %8s  (fitted model: P0=%.1f dBm, n=%.2f)",
		"method", "median", "mean", model.P0dBm, model.Exponent)
	at := stats.Summarize(res[0].ErrorsCM[6])
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
