package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/music"
)

// TestSynthHeapMatchesLinearPick pins the heap-ordered branch-and-bound
// against the retained linear bound scan: over random scenes, every
// combination of pick order and hill-climb path must produce the
// identical refined argmax cell and the identical (bit-for-bit)
// localized fix — the heap replays the linear scan's (bound desc,
// index asc) refinement order exactly.
func TestSynthHeapMatchesLinearPick(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	min, max := synthBounds()
	for trial := 0; trial < 10; trial++ {
		client := geom.Pt(2+rng.Float64()*36, 2+rng.Float64()*12)
		aps := synthScene(2+rng.Intn(4), client, rng)
		fast, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache()})
		if err != nil {
			t.Fatal(err)
		}
		variants := []*SynthGrid{
			fast.WithOracles(true, true), // both oracles: the reference
			fast.WithOracles(false, true),
			fast.WithOracles(true, false),
			fast, // heap + guarded climb (the fix path)
		}
		var refCell int
		var refPos geom.Point
		for vi, sg := range variants {
			cell, err := sg.RefinedArgmaxCell(aps)
			if err != nil {
				t.Fatal(err)
			}
			pos, err := sg.Localize(aps)
			if err != nil {
				t.Fatal(err)
			}
			if vi == 0 {
				refCell, refPos = cell, pos
				continue
			}
			if cell != refCell {
				t.Fatalf("trial %d variant %d: argmax cell %d, reference %d", trial, vi, cell, refCell)
			}
			if pos != refPos {
				t.Fatalf("trial %d variant %d: fix %v, reference %v — not bit-identical", trial, vi, pos, refPos)
			}
		}
	}
}

// TestHillClimbGuardedMatchesScalar pins the rotation-guarded hill
// climb bit-for-bit against the scalar scorer at the unit level: from
// many seeds on many scenes, the guarded climb must return the exact
// position and score of hillClimbTabs (the guard may only reject
// probes the exact scorer rejects). The pruning counter must also
// show the fast path actually firing, or the guard is vacuous.
func TestHillClimbGuardedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	min, max := synthBounds()
	var m SynthMetrics
	for trial := 0; trial < 15; trial++ {
		aps := synthScene(2+rng.Intn(4), geom.Pt(4+rng.Float64()*32, 3+rng.Float64()*10), rng)
		sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(), Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		var ws synthWorkspace
		logTabs := ws.logTables(aps)
		for i := 0; i < 20; i++ {
			seed := geom.Pt(min.X+rng.Float64()*(max.X-min.X), min.Y+rng.Float64()*(max.Y-min.Y))
			gotP, gotL := sg.hillClimbGuarded(&ws, seed, aps)
			wantP, wantL := hillClimbTabs(seed, aps, logTabs, sg.spec.Cell, min, max)
			if gotP != wantP || gotL != wantL {
				t.Fatalf("trial %d seed %v: guarded climb (%v, %v) != scalar climb (%v, %v)",
					trial, seed, gotP, gotL, wantP, wantL)
			}
		}
	}
	s := m.Snapshot()
	if s.HillProbes == 0 || s.HillPruned == 0 {
		t.Fatalf("guard never fired: probes=%d pruned=%d", s.HillProbes, s.HillPruned)
	}
	t.Logf("hill climb: %d probes, %d pruned without atan2 (%.0f%%)",
		s.HillProbes, s.HillPruned, 100*float64(s.HillPruned)/float64(s.HillProbes))
}

// TestHillClimbGuardedNearAP exercises the guard's decline paths: a
// climb that walks right next to (and onto) an AP position must fall
// back to exact scoring and stay bit-identical.
func TestHillClimbGuardedNearAP(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	min, max := synthBounds()
	aps := synthScene(3, geom.Pt(20, 8), rng)
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache()})
	if err != nil {
		t.Fatal(err)
	}
	var ws synthWorkspace
	logTabs := ws.logTables(aps)
	for _, ap := range aps {
		for _, off := range []geom.Vec{{}, {X: 0.005}, {X: -0.02, Y: 0.01}, {Y: 0.15}} {
			seed := ap.Pos.Add(off)
			if seed.X < min.X || seed.X > max.X || seed.Y < min.Y || seed.Y > max.Y {
				continue
			}
			gotP, gotL := sg.hillClimbGuarded(&ws, seed, aps)
			wantP, wantL := hillClimbTabs(seed, aps, logTabs, sg.spec.Cell, min, max)
			if gotP != wantP || gotL != wantL {
				t.Fatalf("seed %v at AP %v: guarded (%v, %v) != scalar (%v, %v)",
					seed, ap.Pos, gotP, gotL, wantP, wantL)
			}
		}
	}
}

// TestSynthBnBDegenerateNotQuadratic is the degenerate-surface
// satellite: all-floor spectra at 2 cm pitch tie every block bound,
// so the screen refines blocks up to its budget before falling back —
// the linear scan's pick cost is O(blocks) per refinement (O(blocks²)
// total bound visits), while the heap's is O(log blocks). Both paths
// must agree on the argmax; the heap must examine far fewer bound
// entries.
func TestSynthBnBDegenerateNotQuadratic(t *testing.T) {
	flat := []APSpectrum{
		{Pos: geom.Pt(0, 0), Spectrum: music.NewSpectrum(360)},
		{Pos: geom.Pt(6, 3), Spectrum: music.NewSpectrum(360)},
	}
	min, max := geom.Pt(0, 0), geom.Pt(6, 3)
	run := func(linear bool) (cell int, m SynthMetricsSnapshot) {
		var metrics SynthMetrics
		sg, err := NewSynthGrid(min, max, SynthOptions{
			Cell: 0.02, Cache: NewSynthCache(), Metrics: &metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		sg = sg.WithOracles(linear, false)
		cell, err = sg.RefinedArgmaxCell(flat)
		if err != nil {
			t.Fatal(err)
		}
		return cell, metrics.Snapshot()
	}
	linCell, lin := run(true)
	heapCell, heap := run(false)
	if linCell != heapCell {
		t.Fatalf("degenerate argmax diverged: linear %d, heap %d", linCell, heapCell)
	}
	if lin.FullEvalFallbacks != 1 || heap.FullEvalFallbacks != 1 {
		t.Fatalf("expected both paths to hit the refinement budget: linear %d, heap %d fallbacks",
			lin.FullEvalFallbacks, heap.FullEvalFallbacks)
	}
	if lin.BlocksRefined != heap.BlocksRefined {
		t.Fatalf("refined block counts diverged: linear %d, heap %d", lin.BlocksRefined, heap.BlocksRefined)
	}
	if heap.BoundVisits*10 >= lin.BoundVisits {
		t.Fatalf("heap pick order not asymptotically cheaper: %d visits vs linear %d",
			heap.BoundVisits, lin.BoundVisits)
	}
	t.Logf("degenerate 2 cm screen: %d blocks refined; bound visits linear=%d heap=%d (%.0fx fewer)",
		lin.BlocksRefined, lin.BoundVisits, heap.BoundVisits,
		float64(lin.BoundVisits)/float64(heap.BoundVisits))
}

// TestSynthMetricsCounters: a benign refined fix must account its
// work — blocks refined, bound visits, probes — and pruning can never
// exceed probing.
func TestSynthMetricsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	min, max := synthBounds()
	aps := synthScene(4, geom.Pt(15, 7), rng)
	var m SynthMetrics
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(), Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Localize(aps); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.BlocksRefined == 0 || s.BoundVisits == 0 {
		t.Fatalf("branch-and-bound work not accounted: %+v", s)
	}
	if s.HillProbes == 0 {
		t.Fatalf("hill-climb probes not accounted: %+v", s)
	}
	if s.HillPruned > s.HillProbes {
		t.Fatalf("pruned %d exceeds probes %d", s.HillPruned, s.HillProbes)
	}
}
