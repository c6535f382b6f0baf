package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end at toy size, traced, and
// holds the output to BENCHMARK.json: the output check passes, every
// declared metric comes out exactly once with a finite value and its
// declared unit, nothing undeclared comes out, and nothing fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a second and a half")
	}
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i := range workloads {
		w := &workloads[i]
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q (or their whys differ)", i, bf.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, options{
				seed: 7, seconds: 1.1, trace: true, outDir: t.TempDir(),
				size:      poolSize{clients: 4, waypoints: 2, positions: 8, bystanders: 6},
				rate:      20,               // a race-detector build is an order of magnitude slower
				limit:     10 * time.Second, // and cannot be held to the 100 ms budget
				setupReps: 1, ledgerTxs: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.correct, res.attempted, res.failed, res.problems)
			}
			if got := res.e2e["ok_share"].Value; got != 1 {
				t.Errorf("ok_share = %v, want 1", got)
			}
			check := func(kind string, defs []metricDef, got map[string]metric) {
				for _, d := range defs {
					m, ok := got[d.Name]
					switch {
					case !nameRE.MatchString(d.Name):
						t.Errorf("%s metric name %q is outside the contract", kind, d.Name)
					case !ok:
						t.Errorf("%s metric %s not emitted", kind, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					}
				}
				if len(got) != len(defs) {
					t.Errorf("%d %s metrics emitted, BENCHMARK.json declares %d", len(got), kind, len(defs))
				}
			}
			check("end-to-end", bf.EndToEnd, res.e2e)
			check("per-layer", bf.PerLayer, res.layer)

			for _, traced := range []bool{false, true} {
				var buf bytes.Buffer
				if err := printJSON(&buf, res, traced); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]metric
				}
				dec := json.NewDecoder(&buf)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) == 0 {
					t.Errorf("result line (trace=%v) does not parse to the contract's four keys: %v", traced, err)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
