package testbed

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// regionWorkload builds n deterministic boxes over the floor, 2–10 m
// on a side.
func regionWorkload(n int, rng *rand.Rand) []core.Region {
	out := make([]core.Region, n)
	for i := range out {
		w := 2 + rng.Float64()*8
		h := 2 + rng.Float64()*6
		x0 := rng.Float64() * (FloorW - w)
		y0 := rng.Float64() * (FloorH - h)
		out[i] = core.Region{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+w, y0+h)}
	}
	return out
}

// restrictedArgmaxCell returns the argmax over the cells of sub using
// the full-grid surface h (lower flat sub-index wins ties, matching
// the grids' tie-break).
func restrictedArgmaxCell(h *core.Heatmap, full, sub core.GridSpec) int {
	best, bestV := -1, 0.0
	for iy := 0; iy < sub.Ny; iy++ {
		for ix := 0; ix < sub.Nx; ix++ {
			fx, fy := sub.X0-full.X0+ix, sub.Y0-full.Y0+iy
			if v := h.Flat[fy*full.Nx+fx]; best == -1 || v > bestV {
				best, bestV = iy*sub.Nx+ix, v
			}
		}
	}
	return best
}

// TestRegionGateOnTestbed is the acceptance gate: against a 32 MiB
// cache budget and 50 distinct regions, (1) the reported cache
// size never exceeds the budget at any point in the run and at least
// half the lookups hit, and (2) on every one of the 205 testbed scenes
// (41 clients × [all-six plus four 3-AP combos], the same sweep the
// synthesis exactness test covers) the region-query argmax equals the
// full-grid argmax restricted to that region, at the paper's 10 cm
// pitch.
func TestRegionGateOnTestbed(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	specs, err := tb.Draw(opt).Spectra(opt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	const budget int64 = 32 << 20
	cache := core.NewSynthCache(budget)
	fullGrid, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{Cell: 0.10, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	regions := regionWorkload(50, rng)

	var h core.Heatmap
	checked := 0
	for ci := range specs {
		for _, combo := range SceneCombos() {
			scene := tb.Scene(specs[ci], combo)
			region := regions[checked%len(regions)]
			sg, err := core.NewSynthGridRegion(tb.Plan.Min, tb.Plan.Max, region, core.SynthOptions{
				Cell: 0.10, Cache: cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sg.RefinedArgmaxCell(scene)
			if err != nil {
				t.Fatal(err)
			}
			if err := fullGrid.LogHeatmapInto(&h, scene); err != nil {
				t.Fatal(err)
			}
			want := restrictedArgmaxCell(&h, fullGrid.Spec(), sg.Spec())
			if got != want {
				t.Fatalf("client %d combo %v region %d: region argmax %d != restricted full argmax %d",
					ci, combo, checked%len(regions), got, want)
			}
			if u := cache.Usage(); u.Bytes > budget {
				t.Fatalf("cache size %d exceeds %d budget after scene %d", u.Bytes, budget, checked)
			}
			checked++
		}
	}
	u := cache.Usage()
	t.Logf("region argmax == restricted full argmax on all %d testbed scenes (cache: %d entries, %d/%d bytes, %d hits, %d misses, %d evictions)",
		checked, u.Entries, u.Bytes, budget, u.Hits, u.Misses, u.Evictions)
	// Each box comes round four times: at a budget that holds them all,
	// most lookups must be served from the cache.
	if u.Hits < u.Misses {
		t.Errorf("%d hits against %d misses at a %d MiB budget, want a hit rate of at least 50%%", u.Hits, u.Misses, budget>>20)
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
}

// TestRegionSteadyStateAllocs is the gate's alloc clause: with warm
// LUTs and pooled scratch, a region fix through a prebuilt grid
// allocates at most 2 objects per op.
func TestRegionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the gate runs in the non-race pass")
	}
	tb := New()
	aOpt := DefaultAccuracyOptions()
	aOpt.MaxClients = 1
	specs, err := tb.Draw(aOpt).Spectra(aOpt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	scene := tb.Scene(specs[0], []int{0, 2, 4})
	cache := core.NewSynthCache(32 << 20)
	region := core.Region{Min: geom.Pt(8, 3), Max: geom.Pt(20, 12)}
	sg, err := core.NewSynthGridRegion(tb.Plan.Min, tb.Plan.Max, region, core.SynthOptions{
		Cell: 0.10, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Localize(scene); err != nil { // warm LUTs + pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sg.Localize(scene); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state region Localize: %.0f allocs/op", allocs)
	if allocs > 2 {
		t.Fatalf("region fix allocates %.0f/op steady-state, want ≤2", allocs)
	}
}
