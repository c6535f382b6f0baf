package arraytrack

// One benchmark per table/figure of the paper's evaluation (§4), plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench regenerates its artifact through the testbed experiment runners
// and reports the headline quantity (median location error, stability
// percentage, detection rate, …) as a custom benchmark metric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// benchAccuracyOpts returns a sweep sized for benchmarking: a
// representative client sample and capped combinations so one iteration
// stays in the hundreds of milliseconds.
func benchAccuracyOpts() testbed.AccuracyOptions {
	opt := testbed.DefaultAccuracyOptions()
	opt.MaxClients = 12
	opt.MaxCombos = 4
	return opt
}

func BenchmarkTable1PeakStability(b *testing.B) {
	tb := testbed.New()
	var directSamePct float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := tb.RunTable1(30, 11)
		if err != nil {
			b.Fatal(err)
		}
		// Rows 0 and 1 are the "direct same" outcomes.
		directSamePct = pctFromRow(r.Lines[0]) + pctFromRow(r.Lines[1])
	}
	b.ReportMetric(directSamePct, "direct-same-%")
}

func pctFromRow(row string) float64 {
	f := strings.Fields(row)
	var v float64
	if len(f) > 0 {
		s := strings.TrimSuffix(f[len(f)-1], "%")
		var x float64
		for _, c := range s {
			if c >= '0' && c <= '9' {
				x = x*10 + float64(c-'0')
			}
		}
		v = x
	}
	return v
}

func BenchmarkFig7SpatialSmoothing(b *testing.B) {
	tb := testbed.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunFig7(7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Unoptimized(b *testing.B) {
	tb := testbed.New()
	var median float64
	for i := 0; i < b.N; i++ {
		opt := benchAccuracyOpts()
		opt.APCounts = []int{3, 6}
		_, res, err := tb.RunFig13(opt)
		if err != nil {
			b.Fatal(err)
		}
		median = stats.Median(res.ErrorsCM[6])
	}
	b.ReportMetric(median, "median-cm-6AP")
}

func BenchmarkFig14Heatmaps(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunFig14(20, 14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15ArrayTrack(b *testing.B) {
	tb := testbed.New()
	var median float64
	for i := 0; i < b.N; i++ {
		opt := benchAccuracyOpts()
		opt.APCounts = []int{3, 6}
		_, res, err := tb.RunFig15(opt)
		if err != nil {
			b.Fatal(err)
		}
		median = stats.Median(res.ErrorsCM[6])
	}
	b.ReportMetric(median, "median-cm-6AP")
}

func BenchmarkFig16Antennas(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		opt := benchAccuracyOpts()
		opt.MaxClients = 8
		if _, err := tb.RunFig16(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Pillars(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunFig17(17); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18Robustness(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		opt := benchAccuracyOpts()
		opt.MaxClients = 8
		if _, err := tb.RunFig18(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19Samples(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunFig19(19); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20SNR(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunFig20(20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollisionSIC(b *testing.B) {
	tb := testbed.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunCollision(22); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatencyPipeline(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunLatency(23); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectionSNR(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunDetection(20, 21); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineRSS(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		opt := benchAccuracyOpts()
		opt.MaxClients = 8
		if _, err := tb.RunBaselineComparison(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches: one per design knob, reporting the median error so
// regressions in any pipeline stage surface as metric shifts.

func benchAblationVariant(b *testing.B, mutate func(*core.Config)) {
	tb := testbed.New()
	var median float64
	for i := 0; i < b.N; i++ {
		opt := benchAccuracyOpts()
		opt.APCounts = []int{3}
		opt.MaxClients = 8
		opt.Pipeline = core.DefaultConfig(tb.Wavelength)
		mutate(&opt.Pipeline)
		res, _, err := tb.RunAccuracy(opt)
		if err != nil {
			b.Fatal(err)
		}
		median = stats.Median(res.ErrorsCM[3])
	}
	b.ReportMetric(median, "median-cm-3AP")
}

func BenchmarkAblationFull(b *testing.B) {
	benchAblationVariant(b, func(*core.Config) {})
}

func BenchmarkAblationNoWeighting(b *testing.B) {
	benchAblationVariant(b, func(c *core.Config) { c.UseWeighting = false })
}

func BenchmarkAblationNoSuppression(b *testing.B) {
	benchAblationVariant(b, func(c *core.Config) { c.UseSuppression = false })
}

func BenchmarkAblationNoSymmetryRemoval(b *testing.B) {
	benchAblationVariant(b, func(c *core.Config) { c.UseSymmetryRemoval = false })
}

func BenchmarkAblationNoForwardBackward(b *testing.B) {
	benchAblationVariant(b, func(c *core.Config) { c.ForwardBackward = false })
}

func BenchmarkAblationSmoothingNG1(b *testing.B) {
	benchAblationVariant(b, func(c *core.Config) { c.SmoothingGroups = 1 })
}

func BenchmarkAblationSmoothingNG3(b *testing.B) {
	benchAblationVariant(b, func(c *core.Config) { c.SmoothingGroups = 3 })
}

// Throughput benches: the concurrent engine versus one worker's serial
// loop, at the batch sizes of the paper's many-clients scenario. The
// fixture (capture synthesis through the channel model) is built once
// and shared; requests beyond 41 clients cycle the testbed positions.

var (
	throughputOnce sync.Once
	throughputBase []engine.Request
	throughputTB   *testbed.Testbed
	throughputOpt  testbed.ThroughputOptions
)

func throughputRequests(b *testing.B, n int) []engine.Request {
	b.Helper()
	throughputOnce.Do(func() {
		throughputTB = testbed.New()
		throughputOpt = testbed.DefaultThroughputOptions()
		throughputBase = throughputTB.ThroughputRequests(256, throughputOpt)
	})
	if n > len(throughputBase) {
		b.Fatalf("fixture holds %d requests, need %d", len(throughputBase), n)
	}
	return throughputBase[:n]
}

var throughputClientCounts = []int{1, 8, 64, 256}

// BenchmarkLocateStreaming is the steady-state path one client after
// another on one goroutine: shared caches, pooled workspaces — what one
// engine worker runs per job.
func BenchmarkLocateStreaming(b *testing.B) {
	for _, n := range throughputClientCounts {
		b.Run(fmt.Sprintf("clients-%d", n), func(b *testing.B) {
			reqs := throughputRequests(b, n)
			cfg := core.DefaultConfig(throughputTB.Wavelength)
			cfg.GridCell = throughputOpt.GridCell
			cfg.APWorkers = 0
			// Warm caches and the workspace pool.
			q0 := reqs[0]
			if _, _, err := core.LocateClient(q0.APs, q0.Captures, q0.Min, q0.Max, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range reqs {
					if _, _, err := core.LocateClient(q.APs, q.Captures, q.Min, q.Max, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "fixes/sec")
		})
	}
}

// BenchmarkLocateBatch is the engine: a worker pool across clients
// with the shared steering cache.
func BenchmarkLocateBatch(b *testing.B) {
	for _, n := range throughputClientCounts {
		b.Run(fmt.Sprintf("clients-%d", n), func(b *testing.B) {
			reqs := throughputRequests(b, n)
			cfg := core.DefaultConfig(throughputTB.Wavelength)
			cfg.GridCell = throughputOpt.GridCell
			eng := engine.New(engine.Options{Config: cfg})
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range eng.LocateBatch(reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "fixes/sec")
		})
	}
}

// BenchmarkComputeSpectrum isolates the hottest single computation:
// one MUSIC spectrum for one frame. "fresh" hands every call a new
// workspace (nil); "workspace" reuses one — the steady-state engine
// path, allocating only the escaping spectrum.
func BenchmarkComputeSpectrum(b *testing.B) {
	reqs := throughputRequests(b, 1)
	ap := reqs[0].APs[0]
	streams := reqs[0].Captures[0][0].Streams[:ap.Array.N]
	for _, mode := range []string{"fresh", "workspace"} {
		b.Run(mode, func(b *testing.B) {
			opt := music.Options{
				Wavelength:      throughputTB.Wavelength,
				SmoothingGroups: 2,
				MaxSamples:      10,
				ForwardBackward: true,
			}
			var ws *music.Workspace
			if mode == "workspace" {
				ws = &music.Workspace{}
				if _, err := music.ComputeSpectrumWS(ws, ap.Array, streams, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := music.ComputeSpectrumWS(ws, ap.Array, streams, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSynthScene processes the first throughput fixture request into
// AP spectra, the input of the synthesis layer.
func benchSynthScene(b *testing.B) ([]core.APSpectrum, geom.Point, geom.Point) {
	b.Helper()
	q := throughputRequests(b, 1)[0]
	p := core.NewPipeline(core.DefaultConfig(throughputTB.Wavelength))
	var specs []core.APSpectrum
	for i, ap := range q.APs {
		if len(q.Captures[i]) == 0 {
			continue
		}
		s, err := p.ProcessAP(ap, q.Captures[i])
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, core.APSpectrum{Pos: ap.Array.Pos, Spectrum: s})
	}
	return specs, q.Min, q.Max
}

// BenchmarkComputeHeatmap is the synthesis-layer headline: the seed
// product-domain grid versus the staged SynthGrid (cached bearing
// LUTs + log-domain flat accumulation), single-threaded and sharded,
// plus the two complete estimators (grid search + hill climb). The
// paper's 10 cm pitch over the full testbed floor. "grid" vs "seed"
// ns/op is the ≥5x acceptance criterion, gated hard by
// TestSynthGridSpeedupGate; allocs/op on the staged rows is the ≤2
// criterion, gated by TestSynthGridSteadyStateAllocs.
func BenchmarkComputeHeatmap(b *testing.B) {
	specs, min, max := benchSynthScene(b)
	const cell = 0.10
	newGrid := func(workers int) *core.SynthGrid {
		sg, err := core.NewSynthGrid(min, max, core.SynthOptions{Cell: cell, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		var h core.Heatmap
		if err := sg.LogHeatmapInto(&h, specs); err != nil { // warm LUTs
			b.Fatal(err)
		}
		return sg
	}

	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ComputeHeatmap(specs, min, max, cell); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid", func(b *testing.B) {
		sg := newGrid(1)
		var h core.Heatmap
		if err := sg.LogHeatmapInto(&h, specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sg.LogHeatmapInto(&h, specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("grid-workers-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		sg := newGrid(runtime.GOMAXPROCS(0))
		var h core.Heatmap
		if err := sg.LogHeatmapInto(&h, specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sg.LogHeatmapInto(&h, specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localize-seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Localize(specs, min, max, cell); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localize-coarse2fine", func(b *testing.B) {
		sg := newGrid(1)
		if _, err := sg.Localize(specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sg.Localize(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRegionLocalize times region fixes (the predictive path's
// boxes) through the bounded synthesis cache. "warm" is the steady
// case: the same box re-queried against cached LUTs (the ≤2 allocs/op gate path,
// enforced by TestRegionSteadyStateAllocs). "sliced" constructs the
// grid per fix and derives its LUTs by slicing the cached full-grid
// entries — the first-query cost of a fresh box once the floor is
// warm. "churn" cycles 32 distinct boxes against a budget that cannot
// retain a full-floor LUT, so every query builds the parent LUTs it
// views — the worst case the accounting gate bounds.
func BenchmarkRegionLocalize(b *testing.B) {
	specs, min, max := benchSynthScene(b)
	const cell = 0.10
	mkRegion := func(i int) core.Region {
		x0 := 2 + float64(i%8)*3.5
		y0 := 1 + float64(i/8%4)*2.5
		return core.Region{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+8, y0+5)}
	}

	b.Run("warm", func(b *testing.B) {
		cache := core.NewSynthCache(64 << 20)
		sg, err := core.NewSynthGridRegion(min, max, mkRegion(0), core.SynthOptions{Cell: cell, Workers: 1, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sg.Localize(specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sg.Localize(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sliced", func(b *testing.B) {
		cache := core.NewSynthCache(64 << 20)
		full, err := core.NewSynthGrid(min, max, core.SynthOptions{Cell: cell, Workers: 1, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		var h core.Heatmap
		if err := full.LogHeatmapInto(&h, specs); err != nil { // warm the parent LUTs
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sg, err := core.NewSynthGridRegion(min, max, mkRegion(i%32), core.SynthOptions{Cell: cell, Workers: 1, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sg.Localize(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		cache := core.NewSynthCache(1 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sg, err := core.NewSynthGridRegion(min, max, mkRegion(i%32), core.SynthOptions{Cell: cell, Workers: 1, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sg.Localize(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Extension benches: the future-work and discussion features.

func BenchmarkCircularVsLinear(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunCircular(32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalibrationSweep(b *testing.B) {
	tb := testbed.New()
	for i := 0; i < b.N; i++ {
		if _, err := tb.RunCalibrationSweep(33); err != nil {
			b.Fatal(err)
		}
	}
}
