// Command atbench regenerates the paper's tables and figures from the
// simulated testbed. Each experiment prints a text artifact whose rows
// correspond to the paper's plot series.
//
// Usage:
//
//	atbench -exp fig13          # one experiment
//	atbench -exp all            # everything (several minutes)
//	atbench -exp fig15 -fast    # capped sweep for a quick look
//	atbench -list               # enumerate experiments
//
// Timing is not measured here: a throughput or latency claim is
// bench/'s job (BENCHMARK.json), a kernel claim a testing.B benchmark
// beside its kernel. What remains beside the figures are the
// correctness drills (tracking, ops, chaos, cluster) and the §4.4
// latency budget.
package main

import (
	"flag"
	"fmt"
	"os"
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
	{"circular", "linear vs circular array geometry", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunCircular(32)
	}},
	{"calib", "accuracy vs residual calibration error", func(tb *testbed.Testbed, _ bool) (*testbed.Report, error) {
		return tb.RunCalibrationSweep(33)
	}},
	{"tracking", "roaming client: raw fixes vs Kalman-smoothed track", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		r, _, err := tb.RunTracking(testbed.DefaultTrackingOptions(fast))
		return r, err
	}},
	{"ops", "kill→snapshot→restore mid-walk: zero tracks lost, identical RMSE", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		r, _, err := tb.RunOps(testbed.DefaultOpsOptions(fast))
		return r, err
	}},
	{"chaos", "hostile network: AP kill, slow-loris, corrupted frames, overload", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		r, _, err := tb.RunChaos(testbed.DefaultChaosOptions(fast))
		return r, err
	}},
	{"cluster", "sharded cluster: bit-identical fan-in, zero-loss mid-walk migration", func(tb *testbed.Testbed, fast bool) (*testbed.Report, error) {
		r, _, err := tb.RunCluster(testbed.DefaultClusterOptions(fast))
		return r, err
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

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	fast := flag.Bool("fast", false, "cap sweep sizes for a quick run")
	list := flag.Bool("list", false, "list experiments")
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
		fmt.Print(r.String())
		fmt.Printf("(%s in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}
