package testbed

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
)

// SynthOptions sizes the synthesis-layer benchmark experiment.
type SynthOptions struct {
	// MaxClients is the number of scenes (client positions) measured.
	MaxClients int
	// Sites indexes the AP sites contributing to every scene.
	Sites []int
	// Cells are the grid pitches swept for the speedup table.
	Cells []float64
	// Workers are the shard pool sizes swept per pitch.
	Workers []int
	// Trials is the timing repeat count (best-of).
	Trials int
	// Seed drives capture noise.
	Seed int64
}

// DefaultSynthOptions measures the paper's 10 cm pitch plus two
// coarser ones, at shard pool sizes up to the machine width.
func DefaultSynthOptions() SynthOptions {
	workers := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workers = append(workers, p)
	}
	return SynthOptions{
		MaxClients: 5,
		Sites:      []int{0, 2, 4},
		Cells:      []float64{0.50, 0.25, 0.10},
		Workers:    workers,
		Trials:     3,
		Seed:       1,
	}
}

func bestOf(trials int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < trials; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// synthScenes builds the per-scene AP spectra (one scene per sampled
// client, all requested sites contributing).
func (tb *Testbed) synthScenes(opt SynthOptions) ([][]core.APSpectrum, []geom.Point, error) {
	aOpt := DefaultAccuracyOptions()
	aOpt.MaxClients = opt.MaxClients
	aOpt.Seed = opt.Seed
	specs, clients, err := tb.SpectraForAll(aOpt)
	if err != nil {
		return nil, nil, err
	}
	scenes := make([][]core.APSpectrum, len(clients))
	for ci := range clients {
		for _, si := range opt.Sites {
			scenes[ci] = append(scenes[ci], core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[ci][si]})
		}
	}
	return scenes, clients, nil
}

// RunSynth benchmarks the staged synthesis subsystem against the seed
// path on real testbed scenes: full-resolution surface times per
// (grid pitch × worker count), the coarse-to-fine estimator against
// the seed grid-plus-hill-climb estimator (time and RMSE), the
// refined-vs-full argmax exactness count, and steady-state allocs.
// Emitted as metrics so `atbench -exp synth -json` extends the
// BENCH_*.json perf trajectory.
func (tb *Testbed) RunSynth(opt SynthOptions) (*Report, error) {
	scenes, clients, err := tb.synthScenes(opt)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "synth", Title: "staged heatmap synthesis: LUT + log-domain vs seed"}

	// --- full-resolution surface: seed vs grid, per pitch × workers.
	r.Addf("%6s %8s %10s %s", "cell", "cells", "seed", "grid (by workers, speedup vs seed)")
	var speedup1w, speedupNw float64
	for _, cell := range opt.Cells {
		grids := make([]*core.SynthGrid, len(opt.Workers))
		for wi, w := range opt.Workers {
			sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: cell, Workers: w})
			if err != nil {
				return nil, err
			}
			grids[wi] = sg
		}
		var h core.Heatmap
		for _, sc := range scenes { // warm LUTs outside the timings
			if err := grids[0].LogHeatmapInto(&h, sc); err != nil {
				return nil, err
			}
		}
		seed := bestOf(opt.Trials, func() {
			for _, sc := range scenes {
				if _, err := core.ComputeHeatmap(sc, tb.Plan.Min, tb.Plan.Max, cell); err != nil {
					panic(err)
				}
			}
		})
		row := ""
		for wi, sg := range grids {
			grid := bestOf(opt.Trials, func() {
				for _, sc := range scenes {
					if err := sg.LogHeatmapInto(&h, sc); err != nil {
						panic(err)
					}
				}
			})
			sp := float64(seed) / float64(grid)
			row += formatWorkerCol(opt.Workers[wi], grid, sp)
			if cell == opt.Cells[len(opt.Cells)-1] {
				if opt.Workers[wi] == 1 {
					speedup1w = sp
				}
				if wi == len(grids)-1 {
					speedupNw = sp
				}
			}
		}
		r.Addf("%5.2fm %8d %10s %s", cell, grids[0].Spec().Cells(), seed.Round(time.Microsecond), row)
	}

	// --- the complete estimator: coarse-to-fine + hill climb vs seed
	// grid search + hill climb, plus argmax exactness and accuracy.
	fine := opt.Cells[len(opt.Cells)-1]
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: fine, Workers: 1})
	if err != nil {
		return nil, err
	}
	matches := 0
	var gridErrCM, seedErrCM []float64
	for ci, sc := range scenes {
		full, err := sg.FullArgmaxCell(sc)
		if err != nil {
			return nil, err
		}
		refined, err := sg.RefinedArgmaxCell(sc)
		if err != nil {
			return nil, err
		}
		if full == refined {
			matches++
		}
		gpos, err := sg.Localize(sc)
		if err != nil {
			return nil, err
		}
		spos, _, err := core.Localize(sc, tb.Plan.Min, tb.Plan.Max, fine)
		if err != nil {
			return nil, err
		}
		gridErrCM = append(gridErrCM, gpos.Dist(clients[ci])*100)
		seedErrCM = append(seedErrCM, spos.Dist(clients[ci])*100)
	}
	seedLoc := bestOf(opt.Trials, func() {
		for _, sc := range scenes {
			if _, _, err := core.Localize(sc, tb.Plan.Min, tb.Plan.Max, fine); err != nil {
				panic(err)
			}
		}
	})
	gridLoc := bestOf(opt.Trials, func() {
		for _, sc := range scenes {
			if _, err := sg.Localize(sc); err != nil {
				panic(err)
			}
		}
	})
	locSpeedup := float64(seedLoc) / float64(gridLoc)
	allocs := allocsPerRun(10, func() {
		if _, err := sg.Localize(scenes[0]); err != nil {
			panic(err)
		}
	})

	matchPct := 100 * float64(matches) / float64(len(scenes))
	gridRMSE := stats.Median(gridErrCM)
	seedRMSE := stats.Median(seedErrCM)
	r.Addf("estimator over %d scenes @ %.2fm: seed %s, coarse-to-fine %s (%.1fx)",
		len(scenes), fine, seedLoc.Round(time.Microsecond), gridLoc.Round(time.Microsecond), locSpeedup)
	r.Addf("refined argmax == full argmax on %d/%d scenes (%.0f%%)", matches, len(scenes), matchPct)
	r.Addf("median error: coarse-to-fine %.0f cm, seed %.0f cm", gridRMSE, seedRMSE)
	r.Addf("steady-state allocs/op (Localize, 1 worker): %.0f", allocs)

	r.AddMetric("synth_speedup_1w", speedup1w, "x")
	r.AddMetric("synth_speedup_maxw", speedupNw, "x")
	r.AddMetric("synth_localize_speedup", locSpeedup, "x")
	r.AddMetric("synth_argmax_match_pct", matchPct, "%")
	r.AddMetric("synth_median_err_grid_cm", gridRMSE, "cm")
	r.AddMetric("synth_median_err_seed_cm", seedRMSE, "cm")
	r.AddMetric("synth_localize_allocs", allocs, "allocs/op")
	return r, nil
}

func formatWorkerCol(workers int, d time.Duration, speedup float64) string {
	return fmt.Sprintf("  %dw:%s (%.1fx)", workers, d.Round(time.Microsecond), speedup)
}
