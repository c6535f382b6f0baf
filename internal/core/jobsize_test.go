package core_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/music"
	"repro/internal/testbed"
)

// TestSynthJobSizeBound bounds the longest synthesis job the shipped
// config (10 cm over the testbed floor, 401 × 161 = 64,561 cells) can
// admit, as counts that repeat exactly. Six all-floor APs tie every
// bound, so the screen bounds all 119 superblocks, expands every one
// (2,673 blocks), refines blocks up to its budget (2,673/4 + 3 = 671)
// and then falls back to the full surface: at most 671 · 25 + 64,561 =
// 81,336 cells evaluated, the worst case the screen has. A region
// snaps to the grid's lattice, so the largest one — a predicted box
// clamped to the whole floor — costs the same. The time is logged,
// never gated.
func TestSynthJobSizeBound(t *testing.T) {
	tb := testbed.New()
	aps := make([]core.APSpectrum, len(tb.Sites))
	for i, s := range tb.Sites {
		aps[i] = core.APSpectrum{Pos: s.Pos, Spectrum: music.NewSpectrum(360)}
	}
	const cell = 0.10
	opt := core.SynthOptions{Cell: cell, Cache: core.NewSynthCache(0)}
	for _, c := range []struct {
		name   string
		region core.Region
	}{{"full grid", core.Region{}}, {"whole-floor region", core.Region{Min: tb.Plan.Min, Max: tb.Plan.Max}}} {
		var m core.SynthMetrics
		opt.Metrics = &m
		sg, err := core.NewSynthGridRegion(tb.Plan.Min, tb.Plan.Max, c.region, opt)
		if err != nil {
			t.Fatal(err)
		}
		const fixes = 5
		best := time.Duration(math.MaxInt64)
		for i := 0; i < fixes; i++ {
			start := time.Now()
			if _, err := sg.Localize(aps); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		got := m.Snapshot()
		got.BoundVisits, got.HillProbes, got.HillPruned = 0, 0, 0 // not part of the bound
		want := core.SynthMetricsSnapshot{
			BlocksRefined:     671 * fixes,
			BoundEvals:        (119 + 2673) * int64(len(aps)) * fixes,
			SuperExpanded:     119 * fixes,
			FullEvalFallbacks: fixes,
		}
		if got != want {
			t.Errorf("%s: %d fixes counted %+v, want %+v", c.name, fixes, got, want)
		}
		spec := sg.Spec()
		cells := got.BlocksRefined/fixes*core.DefaultCoarseFactor*core.DefaultCoarseFactor + int64(spec.Cells())
		if cells > 81336 {
			t.Errorf("%s: %d cells evaluated per fix, want ≤ 81,336", c.name, cells)
		}
		t.Logf("%s (%d × %d cells): ≤ %d cells evaluated per fix, best of %d %v",
			c.name, spec.Nx, spec.Ny, cells, fixes, best)
	}
}
