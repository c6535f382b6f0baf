package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/testbed"
)

// TestKernelsExactOn205Scenes is the synthesis kernels' exactness pin
// at full testbed scale: over all 205 scenes (41 clients × [all-six plus
// four 3-AP combos]) the fast kernel stack — two-level heap-ordered
// branch-and-bound screen plus rotation-guarded hill climb — must
// produce the bit-identical refined argmax cell and localized fix of the
// oracle pair (flat screen with a linear bound scan + scalar climb). No tolerance: the kernels
// claim exact replacement, not approximation.
func TestKernelsExactOn205Scenes(t *testing.T) {
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	specs, err := tb.Draw(opt).Spectra(opt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	var metrics core.SynthMetrics
	fast, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Workers: 1, Cache: core.NewSynthCache(0), Metrics: &metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := fast.WithOracles(true, true)
	checked := 0
	for ci := range specs {
		for _, combo := range testbed.SceneCombos() {
			scene := tb.Scene(specs[ci], combo)
			gotCell, err := fast.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			wantCell, err := ref.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			if gotCell != wantCell {
				t.Fatalf("client %d combo %v: fast argmax cell %d != reference %d", ci, combo, gotCell, wantCell)
			}
			got, err := fast.Localize(scene)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Localize(scene)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("client %d combo %v: fast fix %v != reference %v — not bit-identical", ci, combo, got, want)
			}
			checked++
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	// Only the guarded climb counts probes, so these are the fast side's:
	// a guard that prunes little is exact and pointless.
	m := metrics.Snapshot()
	pruned := 100 * float64(m.HillPruned) / float64(m.HillProbes)
	if pruned < 40 {
		t.Errorf("rotation guard pruned %.0f%% of %d hill-climb probes, want at least 40%%", pruned, m.HillProbes)
	}
	t.Logf("fast kernels bit-identical to the oracles on all %d testbed scenes; %.0f%% of %d climb probes pruned without a bearing",
		checked, pruned, m.HillProbes)
}

// scenes205 returns the 205 testbed scenes of TestKernelsExactOn205Scenes.
func scenes205(t *testing.T, tb *testbed.Testbed) [][]core.APSpectrum {
	t.Helper()
	opt := testbed.DefaultAccuracyOptions()
	specs, err := tb.Draw(opt).Spectra(opt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	var scenes [][]core.APSpectrum
	for ci := range specs {
		for _, combo := range testbed.SceneCombos() {
			scenes = append(scenes, tb.Scene(specs[ci], combo))
		}
	}
	return scenes
}

// TestHierScreenRefinesFlatOrder pins more than the two-level screen's
// result: the *sequence* of screening blocks it refines must equal the
// flat oracle's (every block bounded, linear pick), block for block —
// and with it the argmax cell and the fix, `==`. Swept over the 205
// testbed scenes, a surface on which every bound ties (index order
// alone decides, and the refinement budget ends it), a rippled
// near-flat surface that exhausts the budget with distinct bounds
// (both screens must take the same full-surface fallback), and
// screened region views whose edge superblocks are partial.
func TestHierScreenRefinesFlatOrder(t *testing.T) {
	tb := testbed.New()
	var metrics, flatMetrics core.SynthMetrics
	grid := func(region core.Region, cache *core.SynthCache, m *core.SynthMetrics) *core.SynthGrid {
		sg, err := core.NewSynthGridRegion(tb.Plan.Min, tb.Plan.Max, region, core.SynthOptions{
			Cell: 0.10, Workers: 1, Cache: cache, Metrics: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	check := func(name string, region core.Region, cache *core.SynthCache, scene []core.APSpectrum) (refined int) {
		t.Helper()
		var got, want []int
		hier := grid(region, cache, &metrics).WithRefineTrace(&got)
		flat := grid(region, cache, &flatMetrics).WithOracles(true, false).WithRefineTrace(&want)
		gotCell, err := hier.RefinedArgmaxCell(scene)
		if err != nil {
			t.Fatal(err)
		}
		wantCell, err := flat.RefinedArgmaxCell(scene)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: the oracle refined no block — the screen did not run", name)
		}
		if !slices.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("%s: refinement sequences diverge at pick %d: two-level %v, flat %v (lengths %d, %d)",
				name, n, got[n:min(n+4, len(got))], want[n:min(n+4, len(want))], len(got), len(want))
		}
		if gotCell != wantCell {
			t.Fatalf("%s: argmax cell %d, flat oracle %d", name, gotCell, wantCell)
		}
		gotPos, err := hier.Localize(scene)
		if err != nil {
			t.Fatal(err)
		}
		wantPos, err := flat.Localize(scene)
		if err != nil {
			t.Fatal(err)
		}
		if gotPos != wantPos {
			t.Fatalf("%s: fix %v, flat oracle %v — not bit-identical", name, gotPos, wantPos)
		}
		return len(want)
	}

	scenes := scenes205(t, tb)
	if len(scenes) != 205 {
		t.Fatalf("built %d scenes, want 205", len(scenes))
	}
	cache := core.NewSynthCache(0)
	for i, scene := range scenes {
		check(fmt.Sprintf("scene %d", i), core.Region{}, cache, scene)
	}
	if f := metrics.Snapshot().FullEvalFallbacks; f != 0 {
		t.Fatalf("%d testbed scenes fell back to the full surface", f)
	}

	// Every bound ties: all-floor spectra. Index order decides.
	tied := make([]core.APSpectrum, 3)
	rippled := make([]core.APSpectrum, 3)
	rng := rand.New(rand.NewSource(191))
	for a := range tied {
		tied[a] = core.APSpectrum{Pos: tb.Sites[a].Pos, Spectrum: music.NewSpectrum(360)}
		s := music.NewSpectrum(360)
		// Every window holds an even bin, so every bound sits within 1e-6
		// of the ceiling — all distinct — while cells, interpolating
		// toward the odd bins' 0.5, stay well below: nothing prunes.
		for i := range s.P {
			s.P[i] = 0.5
			if i%2 == 0 {
				s.P[i] = 1 - 1e-6*rng.Float64()
			}
		}
		rippled[a] = core.APSpectrum{Pos: tb.Sites[a].Pos, Spectrum: s}
	}
	for _, adv := range []struct {
		name  string
		scene []core.APSpectrum
	}{{"all-tied", tied}, {"rippled", rippled}} {
		before := metrics.Snapshot().FullEvalFallbacks
		beforeFlat := flatMetrics.Snapshot().FullEvalFallbacks
		n := check(adv.name, core.Region{}, cache, adv.scene)
		// Two screens each (argmax, then localize) on both sides.
		if d, df := metrics.Snapshot().FullEvalFallbacks-before, flatMetrics.Snapshot().FullEvalFallbacks-beforeFlat; d != 2 || df != 2 {
			t.Fatalf("%s: %d two-level and %d flat fallbacks over two screens each, want 2 and 2", adv.name, d, df)
		}
		t.Logf("%s surface: %d refinements over two screens in the oracle's order, each ending in the full-surface fallback", adv.name, n)
	}

	// Region views over the warm full-grid LUTs: block and superblock
	// partitions restart at the region's corner, and sizes that are not
	// multiples of 25 cells leave partial superblocks on the far edges.
	regions := 0
	for i, scene := range scenes {
		if i%5 != 0 { // the 41 six-AP scenes
			continue
		}
		c := tb.Clients[i/5]
		w, h := 3.3+float64(i%7), 3.3+float64(i%4)
		region := core.Region{Min: geom.Pt(c.X-w/2, c.Y-h/2), Max: geom.Pt(c.X+w/2, c.Y+h/2)}
		check(fmt.Sprintf("region %d", i/5), region, cache, scene)
		check(fmt.Sprintf("region %d tied", i/5), region, cache, tied)
		regions++
	}
	m := metrics.Snapshot()
	t.Logf("refinement sequence == flat oracle on %d scenes, 2 adversarial surfaces, %d region views x 2; %d blocks refined, %d superblocks expanded",
		len(scenes), regions, m.BlocksRefined, m.SuperExpanded)
}

// TestScreenBoundEvalsOnTestbed is the two-level screen's work-count
// gate, a count that repeats exactly: on the testbed's single-frame
// scenes — every 3-AP combination of every client, then all six APs —
// a fix evaluates at most a fifth of the flat screen's blocks × APs
// bin-window maxima.
func TestScreenBoundEvalsOnTestbed(t *testing.T) {
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	opt.Capture.Frames = 1
	specs, err := tb.Draw(opt).Spectra(opt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	for _, nAPs := range []int{3, 6} {
		var m core.SynthMetrics
		sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
			Cell: 0.10, Workers: 1, Cache: core.NewSynthCache(0), Metrics: &m,
		})
		if err != nil {
			t.Fatal(err)
		}
		fixes := 0
		for ci := range specs {
			for _, combo := range testbed.Combinations(len(tb.Sites), nAPs) {
				if _, err := sg.Localize(tb.Scene(specs[ci], combo)); err != nil {
					t.Fatal(err)
				}
				fixes++
			}
		}
		spec := sg.Spec()
		blocks := ((spec.Nx + core.DefaultCoarseFactor - 1) / core.DefaultCoarseFactor) *
			((spec.Ny + core.DefaultCoarseFactor - 1) / core.DefaultCoarseFactor)
		flat := float64(blocks * nAPs)
		s := m.Snapshot()
		evals := float64(s.BoundEvals) / float64(fixes)
		t.Logf("%d APs, %d scenes: %.0f window maxima per fix (flat screen: %.0f, %.1fx fewer); %.1f of the superblocks expanded, %.1f blocks refined per fix",
			nAPs, fixes, evals, flat, flat/evals,
			float64(s.SuperExpanded)/float64(fixes), float64(s.BlocksRefined)/float64(fixes))
		if evals > flat/5 {
			t.Errorf("%d APs: %.0f window maxima per fix, want ≤ 1/5 of the flat screen's %.0f", nAPs, evals, flat)
		}
		if s.FullEvalFallbacks != 0 {
			t.Errorf("%d APs: %d scenes fell back to the full surface", nAPs, s.FullEvalFallbacks)
		}
	}
}

var sinkPos geom.Point

// BenchmarkFullGridLocalize times the fix a client without a live
// track pays — screen plus hill climb over the whole floor, warm LUTs —
// on the testbed's single-frame spectra at 3 and 6 APs, through the
// two-level screen and through the flat oracle it replaced. Each op is
// one pass over the clients, and must not allocate.
func BenchmarkFullGridLocalize(b *testing.B) {
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	opt.Capture.Frames = 1
	specs, err := tb.Draw(opt).Spectra(opt.Pipeline)
	if err != nil {
		b.Fatal(err)
	}
	fast, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Workers: 1, Cache: core.NewSynthCache(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, nAPs := range []int{3, 6} {
		combo := testbed.Combinations(len(tb.Sites), nAPs)[0]
		scenes := make([][]core.APSpectrum, len(specs))
		for ci := range specs {
			scenes[ci] = tb.Scene(specs[ci], combo)
		}
		for _, v := range []struct {
			name string
			sg   *core.SynthGrid
		}{{"two-level", fast}, {"flat-oracle", fast.WithOracles(true, false)}} {
			b.Run(fmt.Sprintf("aps-%d/%s", nAPs, v.name), func(b *testing.B) {
				pass := func() {
					for _, scene := range scenes {
						pos, err := v.sg.Localize(scene)
						if err != nil {
							b.Fatal(err)
						}
						sinkPos = pos
					}
				}
				pass() // warm LUTs, windows and the pooled workspace
				if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
					b.Fatalf("%.1f allocs per pass over %d warm scenes, want 0", allocs, len(scenes))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(scenes)), "ns/fix")
			})
		}
	}
}

// TestProcessAPsSharedCorrelationExactOn205Scenes pins the per-AP
// stage's one set of snapshots per frame: ProcessAPsWS takes frame 0's
// snapshots over all nine elements once, its estimator reads the row's
// eight and the ninth-antenna vote correlates all nine, where the
// standalone FrameSpectrum and CombineAP take the row's snapshots and
// the full array's separately. Over the 205 scenes (the sweep's draw and
// testbed.SceneCombos) the combined spectra must equal the standalone ones bin for
// bin and the fixes must be ==. One workspace serves every scene and
// gets each scene's spectra back, as an engine worker does, so a
// recycled spectrum that leaks into the next scene fails too.
func TestProcessAPsSharedCorrelationExactOn205Scenes(t *testing.T) {
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	cfg := opt.Pipeline
	cfg.APWorkers = 1 // serial on one workspace, as an engine worker runs
	p := core.NewPipeline(cfg)
	d := tb.Draw(opt)
	aps := d.APs
	ws := &music.Workspace{}
	checked := 0
	for ci, frames := range d.Cut {
		for _, combo := range testbed.SceneCombos() {
			sceneAPs := make([]*core.AP, len(combo))
			caps := make([][]core.FrameCapture, len(combo))
			want := make([]core.APSpectrum, len(combo))
			for i, si := range combo {
				sceneAPs[i], caps[i] = aps[si], frames[si]
				spectra := make([]*music.Spectrum, len(caps[i]))
				for k, f := range caps[i] {
					s, err := p.FrameSpectrum(nil, aps[si], f)
					if err != nil {
						t.Fatal(err)
					}
					spectra[k] = s
				}
				s, err := p.CombineAP(nil, aps[si], caps[i], spectra)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = core.APSpectrum{Pos: aps[si].Array.Pos, Spectrum: s}
			}
			got, err := p.ProcessAPsWS(ws, sceneAPs, caps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Pos != want[i].Pos || !slices.Equal(got[i].Spectrum.P, want[i].Spectrum.P) {
					t.Fatalf("client %d combo %v: AP %d's combined spectrum differs from FrameSpectrum + CombineAP", ci, combo, combo[i])
				}
			}
			gotPos, err := p.Synthesize(got, tb.Plan.Min, tb.Plan.Max)
			if err != nil {
				t.Fatal(err)
			}
			wantPos, err := p.Synthesize(want, tb.Plan.Min, tb.Plan.Max)
			if err != nil {
				t.Fatal(err)
			}
			if gotPos != wantPos {
				t.Fatalf("client %d combo %v: fix %v, standalone stages %v — not ==", ci, combo, gotPos, wantPos)
			}
			for _, s := range got {
				ws.Recycle(s.Spectrum)
			}
			checked++
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
}
