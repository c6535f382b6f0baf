// Command atbench regenerates the paper's tables and figures from the
// simulated testbed. Each experiment prints a text artifact whose rows
// correspond to the paper's plot series.
//
// Usage:
//
//	atbench -exp fig13          # one experiment
//	atbench -exp all            # everything (several minutes)
//	atbench -exp fig15 -fast    # capped sweep for a quick look
//	atbench -exp perf -json bench.json   # machine-readable perf rows
//	atbench -list               # enumerate experiments
//
// With -json <path>, every run experiment's headline metrics
// (fixes/sec, latency percentiles, allocs/op, tracking RMSE, …) are
// also written as a JSON document — the repo's perf trajectory format,
// uploaded as a CI artifact so numbers are diffable across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/testbed"
)

type experiment struct {
	id, desc string
	run      func(tb *testbed.Testbed, fast bool) (*testbed.Report, error)
}

func accuracyOpts(fast bool) testbed.AccuracyOptions {
	opt := testbed.DefaultAccuracyOptions()
	if fast {
		opt.MaxClients = 10
		opt.MaxCombos = 4
	}
	return opt
}

var experiments = []experiment{
	{"table1", "peak stability under 5 cm movement", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		n := 100
		if fast {
			n = 25
		}
		return tb.RunTable1(n, 11)
	}},
	{"fig7", "spatial smoothing sweep", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunFig7(7)
	}},
	{"fig13", "unoptimized location error CDF, 3–6 APs", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		r, _, err := tb.RunFig13(accuracyOpts(fast))
		return r, err
	}},
	{"fig14", "likelihood heatmaps, 1–6 APs", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunFig14(20, 14)
	}},
	{"fig15", "full ArrayTrack location error CDF, 3–6 APs", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		r, _, err := tb.RunFig15(accuracyOpts(fast))
		return r, err
	}},
	{"fig16", "location error vs antenna count", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		return tb.RunFig16(accuracyOpts(fast))
	}},
	{"fig17", "spectra with pillar blocking", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunFig17(17)
	}},
	{"fig18", "robustness to height and orientation", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		return tb.RunFig18(accuracyOpts(fast))
	}},
	{"fig19", "spectrum stability vs sample count", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunFig19(19)
	}},
	{"fig20", "spectra vs SNR", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunFig20(20)
	}},
	{"detect", "packet detection rate vs SNR", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		n := 100
		if fast {
			n = 20
		}
		return tb.RunDetection(n, 21)
	}},
	{"collision", "colliding frames and SIC", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunCollision(22)
	}},
	{"latency", "end-to-end latency budget", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunLatency(23)
	}},
	{"heighterr", "Appendix A height error model", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunHeightError()
	}},
	{"baseline", "ArrayTrack vs RSS baselines", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		return tb.RunBaselineComparison(accuracyOpts(fast))
	}},
	{"threed", "3-D localization with vertical arrays", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunThreeD(31)
	}},
	{"circular", "linear vs circular array geometry", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunCircular(32)
	}},
	{"calib", "accuracy vs residual calibration error", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunCalibrationSweep(33)
	}},
	{"throughput", "multi-client fixes/sec through the engine", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultThroughputOptions()
		if fast {
			opt.ClientCounts = []int{1, 8, 32}
		}
		return tb.RunThroughput(opt)
	}},
	{"tracking", "roaming client: raw fixes vs Kalman-smoothed track", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultTrackingOptions()
		if fast {
			opt.Steps = 12
			opt.Sites = []int{0, 1, 3, 5}
		}
		r, _, err := tb.RunTracking(opt)
		return r, err
	}},
	{"perf", "steady-state allocs/op and per-fix latency", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultPerfOptions()
		if fast {
			opt.Clients = 8
			opt.AllocRuns = 10
		}
		return tb.RunPerf(opt)
	}},
	{"synth", "staged heatmap synthesis: LUT + log-domain vs seed", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultSynthOptions()
		if fast {
			opt.MaxClients = 3
			opt.Cells = []float64{0.50, 0.25}
			opt.Trials = 2
		}
		return tb.RunSynth(opt)
	}},
	{"regions", "ad-hoc region queries: bounded cache + latency lane", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultRegionsOptions()
		if fast {
			opt.MaxClients = 3
			opt.Queries = 120
			opt.Budgets = []int64{1 << 20, 32 << 20}
			opt.BatchJobs = 24
			opt.PriorityJobs = 6
		}
		return tb.RunRegions(opt)
	}},
	{"sched", "engine scheduler + track-guided predictive localization", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultSchedOptions()
		if fast {
			opt.Steps = 10
			opt.Sites = []int{0, 2, 4, 5}
			opt.BatchJobs = 12
			opt.PriorityJobs = 6
			opt.FloodMillis = 150
			opt.Trials = 2
		}
		return tb.RunSched(opt)
	}},
	{"ops", "kill→snapshot→restore mid-walk: zero tracks lost, identical RMSE", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultOpsOptions()
		if fast {
			opt.Steps = 10
			opt.KillStep = 5
			opt.Sites = []int{0, 1, 3, 5}
		}
		r, _, err := tb.RunOps(opt)
		return r, err
	}},
	{"chaos", "hostile network: AP kill, slow-loris, corrupted frames, overload", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultChaosOptions()
		if fast {
			opt.Steps = 6
			opt.KillStep = 3
			opt.Capture.Antennas = 4
			opt.GridCell = 0.5
			opt.BurstJobs = 12
			opt.ShedAfter = time.Millisecond
		}
		r, _, err := tb.RunChaos(opt)
		return r, err
	}},
	{"cluster", "sharded cluster: bit-identical fan-in, zero-loss mid-walk migration, scaling", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultClusterOptions()
		if fast {
			opt.Steps = 8
			opt.MigrateStep = 4
			opt.Sites = []int{0, 1, 3, 5}
			opt.ThroughputClients = 8
			opt.ThroughputFixes = 2
		}
		r, _, err := tb.RunCluster(opt)
		return r, err
	}},
	{"ingest", "flood ingest: v3 batch + pooled decode vs seed per-record path", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultIngestOptions()
		if fast {
			opt.Captures = 2048
			opt.Trials = 3
			opt.Shapes = []testbed.IngestShape{{Antennas: 8, Samples: 16}}
			opt.BatchSizes = []int{32, 128}
		}
		return tb.RunIngest(opt)
	}},
	{"kernels", "numeric kernels: packed eig, guarded climb, heap B&B, two-choice cache", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := testbed.DefaultKernelsOptions()
		if fast {
			opt.MaxClients = 2
			opt.Trials = 3
			opt.Rounds = 2
			opt.DenseCell = 0.04
		}
		return tb.RunKernels(opt)
	}},
	{"ablation", "pipeline ablations", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		opt := accuracyOpts(fast)
		opt.APCounts = []int{3}
		if !fast {
			opt.MaxCombos = 8
		}
		r, _, err := tb.RunAblation(opt)
		return r, err
	}},
}

// jsonExperiment is one experiment's machine-readable record.
type jsonExperiment struct {
	ID      string           `json:"id"`
	Title   string           `json:"title"`
	Seconds float64          `json:"seconds"`
	Metrics []testbed.Metric `json:"metrics,omitempty"`
}

// jsonDoc is the -json output: the BENCH_*.json perf-trajectory
// format.
type jsonDoc struct {
	GeneratedUnix int64            `json:"generated_unix"`
	GoVersion     string           `json:"go_version"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	Fast          bool             `json:"fast"`
	Experiments   []jsonExperiment `json:"experiments"`
}

func writeJSON(path string, doc jsonDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	fast := flag.Bool("fast", false, "cap sweep sizes for a quick run")
	list := flag.Bool("list", false, "list experiments")
	jsonPath := flag.String("json", "", "also write run results as machine-readable JSON to this path")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-10s %s\n", e.id, e.desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	tb := testbed.New()
	doc := jsonDoc{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Fast:          *fast,
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		start := time.Now()
		r, err := e.run(tb, *fast)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Print(r.String())
		fmt.Printf("(%s in %v)\n\n", e.id, elapsed.Round(time.Millisecond))
		doc.Experiments = append(doc.Experiments, jsonExperiment{
			ID:      r.ID,
			Title:   r.Title,
			Seconds: elapsed.Seconds(),
			Metrics: r.Metrics,
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, doc); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonPath, len(doc.Experiments))
	}
}
