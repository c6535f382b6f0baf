package testbed

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/music"
	"repro/internal/stats"
)

// allocsPerRun measures the average heap allocations of one call to f,
// the way testing.AllocsPerRun does (single P, warm-up call, Mallocs
// delta over runs) — reimplemented so the testbed, which ships inside
// the atbench binary, does not link the testing framework.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// PerfOptions sizes the workspace/latency microbenchmark experiment.
type PerfOptions struct {
	// Clients is the number of per-fix latency samples.
	Clients int
	// Sites indexes the AP sites every client is heard by.
	Sites []int
	// GridCell is the synthesis pitch.
	GridCell float64
	// AllocRuns is the sample count for the allocs/op measurements.
	AllocRuns int
}

// DefaultPerfOptions matches the throughput experiment's setup so the
// numbers compose.
func DefaultPerfOptions() PerfOptions {
	return PerfOptions{Clients: 24, Sites: []int{0, 2, 4}, GridCell: 0.25, AllocRuns: 20}
}

// RunPerf measures the machine-readable perf trajectory this repo
// tracks across commits: steady-state allocations per spectrum (warm
// workspace) and per fix (pooled workspaces, warm caches), plus per-fix
// latency percentiles and sustained fixes/sec through the engine.
// Emitted as metrics so `atbench -exp perf -json` seeds BENCH_*.json
// artifacts.
func (tb *Testbed) RunPerf(opt PerfOptions) (*Report, error) {
	tOpt := DefaultThroughputOptions()
	tOpt.Sites = opt.Sites
	tOpt.GridCell = opt.GridCell
	reqs := tb.ThroughputRequests(opt.Clients, tOpt)

	r := &Report{ID: "perf", Title: "steady-state allocations and fix latency"}

	// --- allocs/op: one MUSIC spectrum on a warm workspace.
	ap := reqs[0].APs[0]
	streams := reqs[0].Captures[0][0].Streams[:ap.Array.N]
	specOpt := music.Options{
		Wavelength:      tb.Wavelength,
		SmoothingGroups: 2,
		MaxSamples:      10,
		SampleOffset:    100,
		ForwardBackward: true,
		Steering:        music.NewSteeringCache(),
	}
	ws := &music.Workspace{}
	if _, err := music.ComputeSpectrumWS(ws, ap.Array, streams, specOpt); err != nil {
		return nil, err
	}
	specWS := allocsPerRun(opt.AllocRuns, func() {
		if _, err := music.ComputeSpectrumWS(ws, ap.Array, streams, specOpt); err != nil {
			panic(err)
		}
	})

	// --- allocs/op: one complete fix (allocsPerRun's warm-up call warms
	// the workspace pool and the caches).
	cfgLoc := core.DefaultConfig(tb.Wavelength)
	cfgLoc.GridCell = opt.GridCell
	cfgLoc.APWorkers = 0
	pipe := core.NewPipeline(cfgLoc)
	q := reqs[0]
	locWS := allocsPerRun(opt.AllocRuns/2, func() {
		if _, _, err := pipe.Locate(q.APs, q.Captures, q.Min, q.Max); err != nil {
			panic(err)
		}
	})

	// --- per-fix latency through the engine (streaming one at a time,
	// as the backend's quorum flushes do), then batch throughput.
	cfgEng := core.DefaultConfig(tb.Wavelength)
	cfgEng.GridCell = opt.GridCell
	eng := engine.New(engine.Options{Config: cfgEng})
	defer eng.Close()
	lat := make([]float64, 0, len(reqs))
	serialStart := time.Now()
	for _, q := range reqs {
		s := time.Now()
		if res := eng.Locate(q); res.Err != nil {
			return nil, res.Err
		}
		lat = append(lat, float64(time.Since(s).Microseconds())/1000)
	}
	serialRate := float64(len(reqs)) / time.Since(serialStart).Seconds()
	sort.Float64s(lat)
	p50 := stats.Percentile(lat, 50)
	p99 := stats.Percentile(lat, 99)

	batchStart := time.Now()
	for _, res := range eng.LocateBatch(reqs) {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	batchRate := float64(len(reqs)) / time.Since(batchStart).Seconds()

	r.Addf("allocs/op, steady state: ComputeSpectrumWS %.0f, Pipeline.Locate %.0f", specWS, locWS)
	r.Addf("fix latency over %d clients: p50 %.1f ms  p99 %.1f ms", len(reqs), p50, p99)
	r.Addf("fixes/sec: %.1f streaming, %.1f batch (%d workers)",
		serialRate, batchRate, eng.Stats().Workers)

	r.AddMetric("spectrum_allocs_workspace", specWS, "allocs/op")
	r.AddMetric("locate_allocs_workspace", locWS, "allocs/op")
	r.AddMetric("fix_latency_p50_ms", p50, "ms")
	r.AddMetric("fix_latency_p99_ms", p99, "ms")
	r.AddMetric("fixes_per_sec_streaming", serialRate, "fixes/sec")
	r.AddMetric("fixes_per_sec_batch", batchRate, "fixes/sec")
	return r, nil
}
