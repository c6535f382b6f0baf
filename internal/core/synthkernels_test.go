package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/music"
)

// TestSynthHeapMatchesLinearPick pins the two-level heap-ordered
// branch-and-bound against the retained flat screen: over random
// scenes, every combination of screen and hill-climb path must produce
// the identical refined argmax cell and the identical (bit-for-bit)
// localized fix — the mixed heap replays the linear scan's (bound desc,
// index asc) refinement order exactly.
func TestSynthHeapMatchesLinearPick(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	min, max := synthBounds()
	for trial := 0; trial < 10; trial++ {
		client := geom.Pt(2+rng.Float64()*36, 2+rng.Float64()*12)
		aps := synthScene(2+rng.Intn(4), client, rng)
		fast, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		variants := []*SynthGrid{
			fast.WithOracles(true, true), // both oracles: the reference
			fast.WithOracles(false, true),
			fast.WithOracles(true, false),
			fast, // two-level screen + guarded climb (the fix path)
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
		sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0), Metrics: &m})
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
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0)})
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
// satellite: all-floor spectra at 2 cm pitch tie every bound, so the
// screen expands every superblock and refines blocks up to its budget
// before falling back — the flat oracle's pick cost is O(blocks) per
// refinement (O(blocks²) total bound visits), while the heap's is
// O(log blocks). Both paths must agree on the argmax; the heap must
// examine far fewer bound entries.
func TestSynthBnBDegenerateNotQuadratic(t *testing.T) {
	flat := []APSpectrum{
		{Pos: geom.Pt(0, 0), Spectrum: music.NewSpectrum(360)},
		{Pos: geom.Pt(6, 3), Spectrum: music.NewSpectrum(360)},
	}
	min, max := geom.Pt(0, 0), geom.Pt(6, 3)
	run := func(linear bool) (cell int, m SynthMetricsSnapshot) {
		var metrics SynthMetrics
		sg, err := NewSynthGrid(min, max, SynthOptions{
			Cell: 0.02, Cache: NewSynthCache(0), Metrics: &metrics,
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
	sg, err := NewSynthGrid(min, max, SynthOptions{Cell: 0.10, Cache: NewSynthCache(0), Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Localize(aps); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.BlocksRefined == 0 || s.BoundVisits == 0 || s.BoundEvals == 0 || s.SuperExpanded == 0 {
		t.Fatalf("branch-and-bound work not accounted: %+v", s)
	}
	if s.HillProbes == 0 {
		t.Fatalf("hill-climb probes not accounted: %+v", s)
	}
	if s.HillPruned > s.HillProbes {
		t.Fatalf("pruned %d exceeds probes %d", s.HillPruned, s.HillProbes)
	}
}

// arcContains reports whether circular window [start, start+count) mod
// n contains bin b.
func arcContains(start, count int32, n int, b int32) bool {
	d := b - start
	if d < 0 {
		d += int32(n)
	}
	return d < count
}

// minimalCover returns, by brute force, the bin count of the smallest
// circular window covering the windows of blocks [bx0,bx1)×[by0,by1):
// all bins less the longest run no window touches.
func minimalCover(bl *blockLUT, bins, nbx, bx0, bx1, by0, by1 int) int32 {
	covered := make([]bool, bins)
	for by := by0; by < by1; by++ {
		for c := by*nbx + bx0; c < by*nbx+bx1; c++ {
			for k := int32(0); k < bl.count[c]; k++ {
				covered[(bl.start[c]+k)%int32(bins)] = true
			}
		}
	}
	longest, run := 0, 0
	for i := 0; i < 2*bins && run < bins; i++ { // twice round, so a run may cross the seam
		if covered[i%bins] {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	return int32(bins - longest)
}

// TestSuperWindowsCoverChildren is the property the two-level screen's
// exactness rests on: for any AP position (inside the grid — where a
// block's window wraps the whole circle — on its edge, far outside),
// pitch, bin count and region offset, every block's bin window lies
// inside its superblock's, across the 2π seam included, and the
// superblock's is the smallest window for which that holds. Hence, for any
// log table, superblock bound ≥ block bound (exactly: a maximum over a
// superset) ≥ every cell of the block (to rounding: a lerp of two
// window members), also summed over APs.
func TestSuperWindowsCoverChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(190))
	min, max := synthBounds()
	for trial := 0; trial < 60; trial++ {
		cell := []float64{0.05, 0.10, 0.25, 0.5}[rng.Intn(4)]
		bins := []int{90, 360, 720}[rng.Intn(3)]
		factor := []int{3, 5, 8}[rng.Intn(3)]
		full, err := GridSpecFor(min, max, cell)
		if err != nil {
			t.Fatal(err)
		}
		spec := full
		if trial%2 == 1 { // a region of the lattice, offset from its origin
			nx, ny := 12+rng.Intn(full.Nx/3), 12+rng.Intn(full.Ny/3)
			spec = GridSpec{Min: full.Min, Cell: cell, Nx: nx, Ny: ny,
				X0: rng.Intn(full.Nx - nx), Y0: rng.Intn(full.Ny - ny)}
		}
		nAPs := 1 + rng.Intn(3)
		luts := make([]bearingLUT, nAPs)
		wins := make([]*blockLUT, nAPs)
		tabs := make([][]float64, nAPs)
		for a := range luts {
			var ap geom.Point
			switch rng.Intn(4) {
			case 0: // exactly on a cell centre of the grid
				ap = spec.Center(rng.Intn(spec.Nx), rng.Intn(spec.Ny))
			case 1: // anywhere inside
				o, e := spec.Origin(), spec.Center(spec.Nx-1, spec.Ny-1)
				ap = geom.Pt(o.X+rng.Float64()*(e.X-o.X), o.Y+rng.Float64()*(e.Y-o.Y))
			case 2: // on the grid's left edge
				ap = geom.Pt(spec.Origin().X, spec.Origin().Y+rng.Float64()*float64(spec.Ny-1)*cell)
			default: // far outside
				ap = geom.Pt(-200+rng.Float64()*500, -300+rng.Float64()*700)
			}
			luts[a] = buildLUT(ap, spec, bins)
			wins[a] = buildBlockLUT(luts[a], spec, factor, bins)
			tabs[a] = make([]float64, bins+1)
			for i := 0; i < bins; i++ {
				tabs[a][i] = math.Log(likelihoodFloor + rng.Float64())
			}
			tabs[a][bins] = tabs[a][0]
		}
		nbx, nby := spec.blockDims(factor)
		nsx, nsy := superDims(nbx, nby)
		for sy := 0; sy < nsy; sy++ {
			for sx := 0; sx < nsx; sx++ {
				s := sy*nsx + sx
				superBound := 0.0
				for a, bl := range wins {
					superBound += music.WindowMax(tabs[a][:bins], int(bl.superStart[s]), int(bl.superCount[s]))
				}
				bx0, bx1, by0, by1 := superRect(nbx, nby, sx, sy)
				for a, bl := range wins {
					if want := minimalCover(bl, bins, nbx, bx0, bx1, by0, by1); bl.superCount[s] != want {
						t.Fatalf("trial %d AP %d: superblock %d's window spans %d bins, the minimal cover of its blocks' windows %d",
							trial, a, s, bl.superCount[s], want)
					}
				}
				for by := by0; by < by1; by++ {
					for bx := bx0; bx < bx1; bx++ {
						c := by*nbx + bx
						blockBound := 0.0
						for a, bl := range wins {
							if bl.count[c] < 2 || bl.count[c] > int32(bins) {
								t.Fatalf("trial %d block %d: window of %d bins", trial, c, bl.count[c])
							}
							for k := int32(0); k < bl.count[c]; k++ {
								b := (bl.start[c] + k) % int32(bins)
								if !arcContains(bl.superStart[s], bl.superCount[s], bins, b) {
									t.Fatalf("trial %d (cell %g, %d bins, factor %d, offset %d,%d) AP %d: bin %d of block %d's window [%d,+%d) is outside superblock %d's [%d,+%d)",
										trial, cell, bins, factor, spec.X0, spec.Y0, a, b, c,
										bl.start[c], bl.count[c], s, bl.superStart[s], bl.superCount[s])
								}
							}
							blockBound += music.WindowMax(tabs[a][:bins], int(bl.start[c]), int(bl.count[c]))
						}
						if superBound < blockBound {
							t.Fatalf("trial %d: superblock %d bound %v below its block %d's %v", trial, s, superBound, c, blockBound)
						}
						x0, x1, y0, y1 := blockRect(spec, factor, bx, by)
						for iy := y0; iy < y1; iy++ {
							for ix := x0; ix < x1; ix++ {
								v := 0.0
								for a, lut := range luts {
									b, f := lut.bin[iy*lut.stride+ix], lut.frac[iy*lut.stride+ix]
									v += tabs[a][b]*(1-f) + tabs[a][b+1]*f
								}
								if v > blockBound+1e-12 {
									t.Fatalf("trial %d: cell (%d,%d) = %v exceeds block %d's bound %v", trial, ix, iy, v, c, blockBound)
								}
							}
						}
					}
				}
			}
		}
	}
}
