package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/music"
)

// synthScene builds a deterministic multi-AP synthetic scene: APs on
// the perimeter of [min,max], each with a Gaussian lobe at the true
// bearing to the client plus a couple of off-path lobes.
func synthScene(nAPs int, client geom.Point, rng *rand.Rand) []APSpectrum {
	perimeter := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(39.5, 0.7), geom.Pt(39.3, 15.5),
		geom.Pt(0.6, 15.2), geom.Pt(20, 0.4), geom.Pt(20, 15.6),
	}
	aps := make([]APSpectrum, nAPs)
	for i := 0; i < nAPs; i++ {
		pos := perimeter[i%len(perimeter)]
		direct := geom.Deg(pos.Bearing(client))
		centers := []float64{direct}
		amps := []float64{1}
		for k := 0; k < 2; k++ {
			centers = append(centers, rng.Float64()*360)
			amps = append(amps, 0.3+0.4*rng.Float64())
		}
		aps[i] = APSpectrum{Pos: pos, Spectrum: gaussSpectrum(centers, amps)}
	}
	return aps
}

func synthBounds() (geom.Point, geom.Point) {
	return geom.Pt(0, 0), geom.Pt(40, 16)
}

// TestLogLikelihoodPreservesOrdering is the satellite property test:
// for any pair of candidate positions, log-domain evaluation must
// order them exactly as the Eq. 8 product does (the log is monotone
// and both clamp at likelihoodFloor identically). Near-ties within
// float rounding are exempt.
func TestLogLikelihoodPreservesOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	min, max := synthBounds()
	for trial := 0; trial < 20; trial++ {
		aps := synthScene(2+rng.Intn(4), geom.Pt(5+rng.Float64()*30, 3+rng.Float64()*10), rng)
		pts := make([]geom.Point, 60)
		for i := range pts {
			pts[i] = geom.Pt(min.X+rng.Float64()*(max.X-min.X), min.Y+rng.Float64()*(max.Y-min.Y))
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				li, lj := Likelihood(pts[i], aps), Likelihood(pts[j], aps)
				gi, gj := LogLikelihood(pts[i], aps), LogLikelihood(pts[j], aps)
				if math.Abs(li-lj) <= 1e-12*(li+lj) {
					continue // product-domain near-tie: ordering undefined
				}
				if (li > lj) != (gi > gj) {
					t.Fatalf("trial %d: ordering flips: L(%v)=%g L(%v)=%g but logL %g vs %g",
						trial, pts[i], li, pts[j], lj, gi, gj)
				}
			}
		}
	}
}

// TestLogLikelihoodClampsAtFloor: a spectrum zeroed at the lookup
// bearing must contribute exactly log(likelihoodFloor), the log-domain
// image of Likelihood's clamp.
func TestLogLikelihoodClampsAtFloor(t *testing.T) {
	s := music.NewSpectrum(360) // all-zero: every lookup clamps
	aps := []APSpectrum{{Pos: geom.Pt(0, 0), Spectrum: s}, {Pos: geom.Pt(10, 0), Spectrum: s}}
	x := geom.Pt(5, 5)
	if got, want := LogLikelihood(x, aps), 2*math.Log(likelihoodFloor); got != want {
		t.Fatalf("LogLikelihood = %v, want %v", got, want)
	}
	if got, want := Likelihood(x, aps), likelihoodFloor*likelihoodFloor; got != want {
		t.Fatalf("Likelihood = %v, want %v", got, want)
	}
}

// TestBearingLUTBitCompatible: the cached (bin, frac) pairs fed
// through the batch lookup must reproduce Spectrum.At at every cell
// centre bit for bit — the LUT is just At with the atan2 hoisted out.
func TestBearingLUTBitCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	min, max := synthBounds()
	aps := synthScene(3, geom.Pt(12, 9), rng)
	cache := NewSynthCache(0)
	spec, err := GridSpecFor(min, max, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range aps {
		lut := cache.lut(ap.Pos, spec, ap.Spectrum.Bins())
		got := ap.Spectrum.AtBins(lut.bin, lut.frac, nil)
		c := 0
		for iy := 0; iy < spec.Ny; iy++ {
			for ix := 0; ix < spec.Nx; ix++ {
				want := ap.Spectrum.At(ap.Pos.Bearing(spec.Center(ix, iy)))
				if got[c] != want {
					t.Fatalf("cell (%d,%d): LUT value %v, live At %v — not bit-identical", ix, iy, got[c], want)
				}
				c++
			}
		}
	}
	if u := cache.Usage(); u.Misses != 3 || u.Hits != 0 {
		t.Fatalf("cache stats hits=%d misses=%d, want 0/3", u.Hits, u.Misses)
	}
	cache.lut(aps[0].Pos, spec, aps[0].Spectrum.Bins())
	if hits := cache.Usage().Hits; hits != 1 {
		t.Fatalf("repeat lookup did not hit the cache")
	}
	if cache.Usage().Entries != 3 {
		t.Fatalf("cache holds %d LUTs, want 3", cache.Usage().Entries)
	}
}

// TestLogHeatmapMatchesScalarReference pins the surface's documented
// semantics against a naive scalar implementation of the same
// definition — per cell, Σ_ap lerp over log(max(P[b], floor)) at the
// live BinLookup of the AP→cell bearing — computed without LUTs,
// padding, or sharding. Bit equality, not a tolerance.
func TestLogHeatmapMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	min, max := synthBounds()
	aps := synthScene(4, geom.Pt(23, 6), rng)
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.5, Cache: NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	var logH Heatmap
	if err := sg.LogHeatmapInto(&logH, aps); err != nil {
		t.Fatal(err)
	}
	spec := sg.Spec()
	if logH.Nx != spec.Nx || logH.Ny != spec.Ny {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", logH.Nx, logH.Ny, spec.Nx, spec.Ny)
	}
	logTabs := make([][]float64, len(aps))
	for a, ap := range aps {
		// The clamp-then-math.Log loop PaddedLogValues must equal.
		tab := make([]float64, ap.Spectrum.Bins()+1)
		for i, v := range ap.Spectrum.P {
			tab[i] = math.Log(math.Max(v, likelihoodFloor))
		}
		tab[ap.Spectrum.Bins()] = tab[0]
		logTabs[a] = tab
	}
	c := 0
	for iy := 0; iy < spec.Ny; iy++ {
		for ix := 0; ix < spec.Nx; ix++ {
			var want float64
			for a, ap := range aps {
				b, f := music.BinLookup(ap.Pos.Bearing(spec.Center(ix, iy)), ap.Spectrum.Bins())
				tab := logTabs[a]
				if a == 0 {
					want = tab[b]*(1-f) + tab[b+1]*f
				} else {
					want += tab[b]*(1-f) + tab[b+1]*f
				}
			}
			if logH.Flat[c] != want {
				t.Fatalf("cell (%d,%d): surface %v, scalar reference %v — not bit-identical", ix, iy, logH.Flat[c], want)
			}
			c++
		}
	}
}

// TestSynthGridMatchesSeedArgmax: on scene after scene, the staged
// log-domain surface must place its maximum on the same cell as the
// seed product-domain heatmap.
func TestSynthGridMatchesSeedArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	min, max := synthBounds()
	for trial := 0; trial < 12; trial++ {
		client := geom.Pt(2+rng.Float64()*36, 2+rng.Float64()*12)
		aps := synthScene(2+rng.Intn(4), client, rng)
		sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.25, Cache: NewSynthCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sg.FullArgmaxCell(aps)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ComputeHeatmap(aps, min, max, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		want, wantV := 0, math.Inf(-1)
		for c, v := range ref.Flat {
			if v > wantV {
				want, wantV = c, v
			}
		}
		if got != want {
			t.Fatalf("trial %d: grid argmax cell %d, seed heatmap argmax %d", trial, got, want)
		}
	}
}

// TestRefinedArgmaxMatchesFull: the coarse-to-fine screen must land on
// the full-resolution argmax cell (the tentpole's exactness claim).
func TestRefinedArgmaxMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	min, max := synthBounds()
	for trial := 0; trial < 15; trial++ {
		client := geom.Pt(2+rng.Float64()*36, 2+rng.Float64()*12)
		aps := synthScene(2+rng.Intn(4), client, rng)
		for _, workers := range []int{1, 4} {
			sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Workers: workers, Cache: NewSynthCache(0)})
			if err != nil {
				t.Fatal(err)
			}
			full, err := sg.FullArgmaxCell(aps)
			if err != nil {
				t.Fatal(err)
			}
			refined, err := sg.RefinedArgmaxCell(aps)
			if err != nil {
				t.Fatal(err)
			}
			if full != refined {
				t.Fatalf("trial %d workers=%d: refined argmax %d != full argmax %d", trial, workers, refined, full)
			}
		}
	}
}

// TestSynthGridLocalizeNearTruth: end-to-end localization on the
// synthetic scenes must land close to the intersection of the direct
// bearings (and near what the seed estimator finds).
func TestSynthGridLocalizeNearTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	min, max := synthBounds()
	for trial := 0; trial < 8; trial++ {
		client := geom.Pt(4+rng.Float64()*32, 3+rng.Float64()*10)
		aps := synthScene(3+rng.Intn(3), client, rng)
		sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		pos, err := sg.Localize(aps)
		if err != nil {
			t.Fatal(err)
		}
		if d := pos.Dist(client); d > 0.5 {
			t.Fatalf("trial %d: grid estimator %.2f m from truth (%v vs %v)", trial, d, pos, client)
		}
		seedPos, _, err := Localize(aps, min, max, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if d := pos.Dist(seedPos); d > 0.30 {
			t.Fatalf("trial %d: grid estimator %.2f m from seed estimator (%v vs %v)", trial, d, pos, seedPos)
		}
	}
}

// TestSynthGridEdgeCases: single AP, degenerate 1×N strips, and a cell
// size larger than the whole area must all work on both evaluation
// paths.
func TestSynthGridEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := gaussSpectrum([]float64{40}, []float64{1})
	oneAP := []APSpectrum{{Pos: geom.Pt(0, 0), Spectrum: s}}
	cases := []struct {
		name     string
		min, max geom.Point
		cell     float64
		aps      []APSpectrum
	}{
		{"single-AP", geom.Pt(0, 0), geom.Pt(10, 10), 0.25, oneAP},
		{"row-1xN", geom.Pt(0, 0), geom.Pt(12, 0.05), 0.1, synthScene(3, geom.Pt(6, 0.02), rng)},
		{"column-Nx1", geom.Pt(0, 0), geom.Pt(0.05, 12), 0.1, synthScene(3, geom.Pt(0.02, 6), rng)},
		{"cell-exceeds-area", geom.Pt(1, 1), geom.Pt(2, 2), 5, oneAP},
		{"tiny-grid", geom.Pt(0, 0), geom.Pt(1, 1), 0.5, oneAP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				sg, err := NewSynthGrid(tc.min, tc.max, SynthOptions{Cell: tc.cell, Workers: workers, Cache: NewSynthCache(0)})
				if err != nil {
					t.Fatal(err)
				}
				full, err := sg.FullArgmaxCell(tc.aps)
				if err != nil {
					t.Fatal(err)
				}
				refined, err := sg.RefinedArgmaxCell(tc.aps)
				if err != nil {
					t.Fatal(err)
				}
				if full != refined {
					t.Fatalf("workers=%d: refined %d != full %d", workers, refined, full)
				}
				pos, err := sg.Localize(tc.aps)
				if err != nil {
					t.Fatal(err)
				}
				if pos.X < tc.min.X || pos.X > tc.max.X || pos.Y < tc.min.Y || pos.Y > tc.max.Y {
					t.Fatalf("workers=%d: fix %v outside bounds", workers, pos)
				}
				if err := sg.LogHeatmapInto(&Heatmap{}, tc.aps); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if _, err := NewSynthGrid(geom.Pt(1, 1), geom.Pt(0, 0), SynthOptions{}); err == nil {
		t.Error("inverted bounds should error")
	}
	if _, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(1, 1), 0); err == nil {
		t.Error("zero cell should error")
	}
	sg, err := NewSynthGrid(geom.Pt(0, 0), geom.Pt(1, 1), SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Localize(nil); err == nil {
		t.Error("no APs should error")
	}
	if _, err := sg.FullArgmaxCell(nil); err == nil {
		t.Error("no APs should error")
	}
	if err := sg.LogHeatmapInto(&Heatmap{}, nil); err == nil {
		t.Error("no APs should error")
	}
}

// TestSynthGridFlatSurfaceFallback: all-floor spectra tie every block
// bound to the best cell, which would defeat the screen's pruning —
// the refinement budget must kick in, fall back to the sharded full
// evaluation, and still return exactly the full-scan argmax (cell 0,
// by the lower-index tie-break).
func TestSynthGridFlatSurfaceFallback(t *testing.T) {
	flat := []APSpectrum{
		{Pos: geom.Pt(0, 0), Spectrum: music.NewSpectrum(360)},
		{Pos: geom.Pt(40, 16), Spectrum: music.NewSpectrum(360)},
	}
	min, max := synthBounds()
	for _, workers := range []int{1, 4} {
		sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Workers: workers, Cache: NewSynthCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		full, err := sg.FullArgmaxCell(flat)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := sg.RefinedArgmaxCell(flat)
		if err != nil {
			t.Fatal(err)
		}
		if full != refined || full != 0 {
			t.Fatalf("workers=%d: flat surface argmax full=%d refined=%d, want 0", workers, full, refined)
		}
	}
}

// TestSynthGridShardedRace exercises the sharded evaluation and the
// LUT cache under concurrency (run with -race): many goroutines
// localize over one shared cache, each grid large enough to shard.
func TestSynthGridShardedRace(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	min, max := synthBounds()
	scenes := make([][]APSpectrum, 6)
	for i := range scenes {
		scenes[i] = synthScene(3, geom.Pt(3+rng.Float64()*34, 2+rng.Float64()*12), rng)
	}
	cache := NewSynthCache(0)
	done := make(chan error, 12)
	for g := 0; g < 12; g++ {
		g := g
		go func() {
			sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Workers: 4, Cache: cache})
			if err != nil {
				done <- err
				return
			}
			var h Heatmap
			for it := 0; it < 3; it++ {
				if _, err := sg.Localize(scenes[(g+it)%len(scenes)]); err != nil {
					done <- err
					return
				}
				if err := sg.LogHeatmapInto(&h, scenes[(g+it)%len(scenes)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 12; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSynthGridSteadyStateAllocs is the alloc gate: with warm LUTs
// and pooled scratch, a single-threaded fix through the staged
// subsystem allocates at most 2 objects per op, and a reused heatmap
// fill allocates none.
func TestSynthGridSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the gate runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(79))
	min, max := synthBounds()
	aps := synthScene(4, geom.Pt(17, 8), rng)
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Workers: 1, Cache: NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Localize(aps); err != nil { // warm LUTs + pool
		t.Fatal(err)
	}
	locAllocs := testing.AllocsPerRun(20, func() {
		if _, err := sg.Localize(aps); err != nil {
			t.Fatal(err)
		}
	})
	var h Heatmap
	if err := sg.LogHeatmapInto(&h, aps); err != nil {
		t.Fatal(err)
	}
	mapAllocs := testing.AllocsPerRun(20, func() {
		if err := sg.LogHeatmapInto(&h, aps); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: Localize=%.0f LogHeatmapInto=%.0f", locAllocs, mapAllocs)
	if locAllocs > 2 {
		t.Fatalf("Localize allocates %.0f/op steady-state, want ≤2", locAllocs)
	}
	if mapAllocs > 2 {
		t.Fatalf("LogHeatmapInto allocates %.0f/op steady-state, want ≤2", mapAllocs)
	}
}

// TestSynthGridSpeedupGate is the perf gate: the single-threaded LUT +
// log-domain surface must beat the seed synthesis path by at least 5x
// on a full-resolution floor grid. The measured margin is ~15-25x, so
// the 5x floor leaves ample headroom for a loaded CI machine.
func TestSynthGridSpeedupGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews the timing ratio; the gate runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(80))
	min, max := synthBounds()
	aps := synthScene(3, geom.Pt(21, 7), rng)
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Workers: 1, Cache: NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	var h Heatmap
	if err := sg.LogHeatmapInto(&h, aps); err != nil { // warm LUTs
		t.Fatal(err)
	}
	best := func(f func()) time.Duration {
		b := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	seed := best(func() {
		if _, err := ComputeHeatmap(aps, min, max, 0.10); err != nil {
			t.Fatal(err)
		}
	})
	grid := best(func() {
		if err := sg.LogHeatmapInto(&h, aps); err != nil {
			t.Fatal(err)
		}
	})
	speedup := float64(seed) / float64(grid)
	t.Logf("full-res heatmap: seed %v, grid %v (%.1fx, single thread)", seed, grid, speedup)
	if speedup < 5 {
		t.Fatalf("LUT+log-domain speedup %.1fx, want ≥5x", speedup)
	}
}

// TestSynthGridWorkersDeterministic: the sharded surface must be
// bit-identical to the serial one (each cell's accumulation order over
// APs is fixed regardless of sharding).
func TestSynthGridWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	min, max := synthBounds()
	aps := synthScene(4, geom.Pt(11, 12), rng)
	cache := NewSynthCache(0)
	var serial, sharded Heatmap
	for _, w := range []int{1, runtime.GOMAXPROCS(0) * 2} {
		sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Workers: w, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		h := &serial
		if w != 1 {
			h = &sharded
		}
		if err := sg.LogHeatmapInto(h, aps); err != nil {
			t.Fatal(err)
		}
	}
	for c := range serial.Flat {
		if serial.Flat[c] != sharded.Flat[c] {
			t.Fatalf("cell %d: serial %v vs sharded %v — sharding changed the surface", c, serial.Flat[c], sharded.Flat[c])
		}
	}
}

// TestPipelineSynthesizeAgreesWithLocalize: the pipeline's staged
// synthesis must agree with the product-domain Localize oracle at
// argmax level on a benign scene.
func TestPipelineSynthesizeAgreesWithLocalize(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	min, max := synthBounds()
	client := geom.Pt(14, 9)
	aps := synthScene(3, client, rng)

	gridCfg := DefaultConfig(lambda)
	seedPos, _, err := Localize(aps, min, max, gridCfg.GridCell)
	if err != nil {
		t.Fatal(err)
	}
	gridPos, err := NewPipeline(gridCfg).Synthesize(aps, min, max)
	if err != nil {
		t.Fatal(err)
	}
	if d := seedPos.Dist(gridPos); d > 0.30 {
		t.Fatalf("oracle fix %v vs staged fix %v differ by %.2f m", seedPos, gridPos, d)
	}
	if d := gridPos.Dist(client); d > 0.5 {
		t.Fatalf("staged fix %.2f m from truth", d)
	}
}
