// Command bench is the repository's benchmark: it drives the system
// cmd/arraytrack-server wires, in-process but over real sockets, with
// the traffic arraytrack-ap produces, and reports the end-to-end and
// per-layer metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench                      all four workloads, a table each
//	go run ./bench -trace 1             the same, then each again traced
//	go run ./bench -workload walk6x3    one workload, result JSON last
//	go run ./bench -agree -repeat 3     two sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func main() {
	name := flag.String("workload", "", "run this workload only and print the result JSON as the last line (default: all four)")
	seed := flag.Int64("seed", 1, "seed for channel noise, the clients' movement between frames and arrival jitter")
	seconds := flag.Float64("seconds", 24, "measured seconds per run: a tenth warm-up, the rest halved between saturate and paced")
	trace := flag.Int("trace", 0, "1: run with the dispatcher shim, write out/trace-<workload>.json, report the per-layer metrics")
	agree := flag.Bool("agree", false, "run two sets of -repeat runs and fail if their medians differ by more than BENCHMARK.json's bounds")
	repeat := flag.Int("repeat", 3, "runs per set for -agree")
	outDir := flag.String("out", "bench/out", "directory for trace files and shard sockets")
	flag.Parse()

	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	if *agree {
		bf, err := readBenchmarkFile("BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if !runAgree(o, *repeat, bf) {
			os.Exit(1)
		}
		return
	}
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := run(w, o)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, res)
		if err := printJSON(os.Stdout, res, o.trace); err != nil {
			fatal(err)
		}
		return
	}
	modes := []bool{false}
	if o.trace {
		modes = append(modes, true)
	}
	for i := range workloads {
		for _, traced := range modes {
			o.trace = traced
			res, err := run(&workloads[i], o)
			if err != nil {
				fatal(err)
			}
			printTable(os.Stdout, res)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// quartiles returns what Python's statistics.quantiles(v, n=4) does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runAgree measures the same binary against itself: two sets of repeat
// full runs, seeds seed..seed+repeat-1 in both. The sets are
// interleaved, one full run of each in turn and the set that goes first
// and the workload order alternating, so that what the correction to
// reference speed leaves of the box's drift falls on both alike. It prints
// each end-to-end metric's median and quartile spread per set and how
// much worse set B's median is, and reports whether that is within the
// metric's bound everywhere.
func runAgree(o options, repeat int, bf *benchmarkFile) bool {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for rep := 0; rep < repeat; rep++ {
		for turn := 0; turn < 2; turn++ {
			set := (rep + turn) % 2
			for i := range workloads {
				w := &workloads[i]
				if turn == 1 {
					w = &workloads[len(workloads)-1-i]
				}
				ro := o
				ro.seed = o.seed + int64(rep)
				res, err := run(w, ro)
				if err != nil {
					fatal(err)
				}
				if !res.correct {
					fatal(fmt.Errorf("%s: %v", w.name, res.problems))
				}
				fmt.Fprintf(os.Stderr, "set %c run %d %s done\n", 'A'+set, rep, w.name)
				for n, m := range res.e2e {
					k := key{w.name, n}
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
		}
	}
	ok := true
	fmt.Printf("%-18s %-20s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median A", "spread A", "median B", "spread B", "diff", "bound")
	for i := range workloads {
		for _, def := range bf.EndToEnd {
			k := key{workloads[i].name, def.Name}
			a1, a2, a3 := quartiles(sets[0][k])
			b1, b2, b3 := quartiles(sets[1][k])
			diff := (b2 - a2) / a2
			if def.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > def.Bound {
				verdict, ok = "  WORSE THAN BOUND", false
			}
			fmt.Printf("%-18s %-20s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%%s\n",
				k.workload, k.metric, a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*diff, 100*def.Bound, verdict)
		}
	}
	return ok
}
