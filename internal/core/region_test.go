package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestRegionValidate rejects non-finite corners and inverted or
// degenerate boxes.
func TestRegionValidate(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	bad := []Region{
		{Min: geom.Pt(nan, 0), Max: geom.Pt(1, 1)},
		{Min: geom.Pt(0, 0), Max: geom.Pt(inf, 1)},
		{Min: geom.Pt(0, nan), Max: geom.Pt(1, 1)},
		{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)}, // inverted
		{Min: geom.Pt(2, 0), Max: geom.Pt(1, 5)}, // inverted X
		{Min: geom.Pt(3, 3), Max: geom.Pt(3, 8)}, // degenerate X
		{Min: geom.Pt(3, 3), Max: geom.Pt(8, 3)}, // degenerate Y
	}
	for i, r := range bad {
		if err := r.Validate(); !errors.Is(err, ErrBadRegion) {
			t.Errorf("case %d (%+v): Validate() = %v, want ErrBadRegion", i, r, err)
		}
	}
	good := []Region{
		{}, // zero means "no region"
		{Min: geom.Pt(2, 3), Max: geom.Pt(5, 6)},
		{Min: geom.Pt(-2e6, -10), Max: geom.Pt(10, 10)}, // clamped to the area at use
	}
	for i, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("good case %d: Validate() = %v", i, err)
		}
	}
}

// restrictedArgmax computes the reference for the gate: the full-grid
// surface argmax restricted to the cells of sub (lower flat sub-index
// wins ties, the same tie-break the grids use).
func restrictedArgmax(t *testing.T, full *SynthGrid, sub GridSpec, aps []APSpectrum) int {
	t.Helper()
	var h Heatmap
	if err := full.LogHeatmapInto(&h, aps); err != nil {
		t.Fatal(err)
	}
	fs := full.Spec()
	best, bestV := -1, math.Inf(-1)
	for iy := 0; iy < sub.Ny; iy++ {
		for ix := 0; ix < sub.Nx; ix++ {
			fx, fy := sub.X0-fs.X0+ix, sub.Y0-fs.Y0+iy
			if v := h.Flat[fy*fs.Nx+fx]; v > bestV {
				best, bestV = iy*sub.Nx+ix, v
			}
		}
	}
	return best
}

// TestRegionArgmaxEqualsRestrictedFull is the tentpole equality: a
// region query's argmax cell must equal the full-grid argmax
// restricted to the region's cells — whether the parent's LUTs were
// warm or built by the region query itself — on scene
// after scene, for both the full-scan and the branch-and-bound paths.
func TestRegionArgmaxEqualsRestrictedFull(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	min, max := synthBounds()
	for trial := 0; trial < 10; trial++ {
		client := geom.Pt(2+rng.Float64()*36, 2+rng.Float64()*12)
		aps := synthScene(2+rng.Intn(4), client, rng)
		for _, warmParent := range []bool{true, false} {
			cache := NewSynthCache(0)
			full, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.25, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if warmParent {
				// Warm the full-grid LUTs so the region slices them.
				if _, err := full.FullArgmaxCell(aps); err != nil {
					t.Fatal(err)
				}
			}
			x0 := rng.Float64() * 30
			y0 := rng.Float64() * 10
			region := Region{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+3+rng.Float64()*8, y0+2+rng.Float64()*5)}
			sg, err := NewSynthGridRegion(min, max, region, SynthOptions{Cell: 0.25, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			want := restrictedArgmax(t, full, sg.Spec(), aps)
			got, err := sg.FullArgmaxCell(aps)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d warm=%v: region argmax %d, restricted full argmax %d", trial, warmParent, got, want)
			}
			refined, err := sg.RefinedArgmaxCell(aps)
			if err != nil {
				t.Fatal(err)
			}
			if refined != want {
				t.Fatalf("trial %d warm=%v: refined region argmax %d, restricted full argmax %d", trial, warmParent, refined, want)
			}
			for _, ap := range aps {
				if _, ok := cache.Get(keyOf(ap.Pos, sg.Spec(), ap.Spectrum.Bins())); ok {
					t.Fatalf("trial %d warm=%v: region LUT cached under its own key", trial, warmParent)
				}
				if _, ok := cache.Get(keyOf(ap.Pos, full.Spec(), ap.Spectrum.Bins())); !ok {
					t.Fatalf("trial %d warm=%v: parent LUT not cached after a region query", trial, warmParent)
				}
			}
		}
	}
}

// TestRegionLocalizeStaysInsideBox: the hill climb must respect the
// clamped region bounds, and a region fully outside the area must
// error cleanly.
func TestRegionLocalizeStaysInsideBox(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	min, max := synthBounds()
	aps := synthScene(3, geom.Pt(20, 8), rng)
	region := Region{Min: geom.Pt(5, 5), Max: geom.Pt(12, 11)}
	sg, err := NewSynthGridRegion(min, max, region, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sg.Localize(aps)
	if err != nil {
		t.Fatal(err)
	}
	if pos.X < region.Min.X || pos.X > region.Max.X || pos.Y < region.Min.Y || pos.Y > region.Max.Y {
		t.Fatalf("region fix %v escaped box %v–%v", pos, region.Min, region.Max)
	}

	// Outside the area entirely: clean error, wrapped ErrBadRegion.
	outside := Region{Min: geom.Pt(100, 100), Max: geom.Pt(110, 110)}
	if _, err := NewSynthGridRegion(min, max, outside, SynthOptions{Cell: 0.10}); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("outside-area region: err = %v, want ErrBadRegion", err)
	}
	// Malformed region: rejected before any grid work.
	invalid := Region{Min: geom.Pt(math.NaN(), 0), Max: geom.Pt(1, 1)}
	if _, err := NewSynthGridRegion(min, max, invalid, SynthOptions{Cell: 0.10}); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("NaN region: err = %v, want ErrBadRegion", err)
	}
}

// TestRegionCellCountCapped: a region never demands more cells than a
// full-area fix. A box far larger than the floor clamps to the search
// area, holds exactly the full grid's cells, and fixes where the full
// grid does, with every side closed (interior), on both synthesis
// entry points.
func TestRegionCellCountCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	min, max := synthBounds()
	aps := synthScene(3, geom.Pt(20, 8), rng)
	hog := Region{Min: geom.Pt(-1e6, -1e6), Max: geom.Pt(1e6, 1e6)}
	full, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSynthGridRegion(min, max, hog, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sg.Spec().Cells(), full.Spec().Cells(); got != want {
		t.Fatalf("oversized region holds %d cells, the full grid %d", got, want)
	}
	cfg := DefaultConfig(lambda)
	cfg.SynthCache = NewSynthCache(0)
	p := NewPipeline(cfg)
	want, err := p.Synthesize(aps, min, max)
	if err != nil {
		t.Fatal(err)
	}
	got, interior, err := p.SynthesizeRegionInterior(aps, min, max, hog)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !interior {
		t.Fatalf("oversized region fixes at %v (interior %v), the full grid at %v", got, interior, want)
	}
}

// TestPipelineRegionPaths: the pipeline's region synthesis agrees with
// the Localize oracle grid-searching the same box on a benign scene,
// and rejects malformed regions with ErrBadRegion.
func TestPipelineRegionPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	min, max := synthBounds()
	client := geom.Pt(14, 9)
	aps := synthScene(3, client, rng)
	region := Region{Min: geom.Pt(10, 5), Max: geom.Pt(18, 13)}

	gridCfg := DefaultConfig(lambda)
	gridCfg.SynthCache = NewSynthCache(0)
	gridPos, _, err := NewPipeline(gridCfg).SynthesizeRegionInterior(aps, min, max, region)
	if err != nil {
		t.Fatal(err)
	}
	oraclePos, _, err := Localize(aps, region.Min, region.Max, gridCfg.GridCell)
	if err != nil {
		t.Fatal(err)
	}
	if d := gridPos.Dist(oraclePos); d > 0.30 {
		t.Fatalf("staged region fix %v vs oracle region fix %v differ by %.2f m", gridPos, oraclePos, d)
	}
	if d := gridPos.Dist(client); d > 0.5 {
		t.Fatalf("staged region fix %.2f m from truth", d)
	}
	bad := Region{Min: geom.Pt(5, 5), Max: geom.Pt(4, 9)}
	if _, _, err := NewPipeline(gridCfg).SynthesizeRegionInterior(aps, min, max, bad); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("inverted region through pipeline: err = %v, want ErrBadRegion", err)
	}
}

// TestHillClimbTabsMatchesScalar is the satellite equality pin: the
// table-driven probe scorer (cached BinLookup path, no per-probe
// Spectrum.At or math.Log) must reproduce the scalar
// LogLikelihoodBins bit for bit at arbitrary positions, and whole
// hill climbs driven by either scorer must visit identical positions
// and return identical scores.
func TestHillClimbTabsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	min, max := synthBounds()
	for trial := 0; trial < 10; trial++ {
		aps := synthScene(2+rng.Intn(4), geom.Pt(4+rng.Float64()*32, 3+rng.Float64()*10), rng)
		var ws synthWorkspace
		logTabs := ws.logTables(aps)
		for i := 0; i < 200; i++ {
			x := geom.Pt(min.X+rng.Float64()*(max.X-min.X), min.Y+rng.Float64()*(max.Y-min.Y))
			got := scoreTabs(x, aps, logTabs)
			want := LogLikelihoodBins(x, aps)
			if got != want {
				t.Fatalf("trial %d: scoreTabs(%v) = %v, scalar LogLikelihoodBins = %v — not bit-identical", trial, x, got, want)
			}
		}
		for i := 0; i < 10; i++ {
			seed := geom.Pt(min.X+rng.Float64()*(max.X-min.X), min.Y+rng.Float64()*(max.Y-min.Y))
			gotP, gotL := hillClimbTabs(seed, aps, logTabs, 0.10, min, max)
			wantP, wantL := hillClimbFn(seed, aps, 0.10, min, max, LogLikelihoodBins)
			if gotP != wantP || gotL != wantL {
				t.Fatalf("trial %d: tab climb (%v, %v) != scalar climb (%v, %v)", trial, gotP, gotL, wantP, wantL)
			}
		}
	}
}

// TestLogLikelihoodBinsAgreesAtBinCentres: at a position whose
// bearing from an AP lands exactly on a bin centre, LogLikelihoodBins
// equals LogLikelihood (no interpolation, same clamp).
func TestLogLikelihoodBinsAgreesAtBinCentres(t *testing.T) {
	s := gaussSpectrum([]float64{90}, []float64{1})
	ap := APSpectrum{Pos: geom.Pt(0, 0), Spectrum: s}
	// Due north of the AP: bearing π/2, exactly bin 90 of 360.
	x := geom.Pt(0, 7)
	got := LogLikelihoodBins(x, []APSpectrum{ap})
	want := LogLikelihood(x, []APSpectrum{ap})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bin-centre disagreement: bins %v vs log %v", got, want)
	}
}

// TestRegionViewEqualsDirectBuild: a region whose LUTs are views of the
// cached full-grid parent reads the same (bin, frac) pairs a direct
// build computes, so its whole log surface and its fix are bit-identical
// to a region served from a cold cache. The views add no LUT entries;
// a screened region memoizes only its block windows (one windows entry
// per AP), and a re-query finds them.
func TestRegionViewEqualsDirectBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	min, max := synthBounds()
	for trial := 0; trial < 8; trial++ {
		aps := synthScene(2+rng.Intn(4), geom.Pt(2+rng.Float64()*36, 2+rng.Float64()*12), rng)
		x0, y0 := rng.Float64()*25, rng.Float64()*8
		// Small regions skip the screen, large ones take it.
		w, h := 2+rng.Float64()*2, 2+rng.Float64()*2
		if trial%2 == 1 {
			w, h = 6+rng.Float64()*8, 5+rng.Float64()*3
		}
		region := Region{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+w, y0+h)}

		warm := NewSynthCache(0)
		full, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: warm})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.FullArgmaxCell(aps); err != nil {
			t.Fatal(err)
		}
		parents := warm.Usage().Entries
		viewed, err := NewSynthGridRegion(min, max, region, SynthOptions{Cell: 0.10, Cache: warm})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := NewSynthGridRegion(min, max, region, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		var hv, hd Heatmap
		if err := viewed.LogHeatmapInto(&hv, aps); err != nil {
			t.Fatal(err)
		}
		if err := direct.LogHeatmapInto(&hd, aps); err != nil {
			t.Fatal(err)
		}
		for i, v := range hd.Flat {
			if hv.Flat[i] != v {
				t.Fatalf("trial %d: cell %d of the viewed region's surface is %v, the direct build's %v", trial, i, hv.Flat[i], v)
			}
		}
		if warm.Usage().Entries != parents {
			t.Fatalf("trial %d: viewing the parents added %d cache entries, want none", trial, warm.Usage().Entries-parents)
		}
		pv, err := viewed.Localize(aps)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := direct.Localize(aps)
		if err != nil {
			t.Fatal(err)
		}
		if pv != pd {
			t.Fatalf("trial %d: viewed region fixes at %v, direct build at %v", trial, pv, pd)
		}
		wantEntries := parents
		if viewed.refineEnabled() {
			wantEntries += len(aps)
		}
		if warm.Usage().Entries != wantEntries {
			t.Fatalf("trial %d: %d entries after the fix, want %d (screened: %v)", trial, warm.Usage().Entries, wantEntries, viewed.refineEnabled())
		}
		checkAccounting(t, warm)
		misses := warm.Usage().Misses
		if _, err := viewed.Localize(aps); err != nil {
			t.Fatal(err)
		}
		if again := warm.Usage().Misses; again != misses {
			t.Fatalf("trial %d: re-querying the region missed the cache %d times", trial, again-misses)
		}
	}
}
