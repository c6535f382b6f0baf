package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/geom"
)

// sumEntryCosts walks the lru's recency list under its lock and returns
// the summed per-entry costs plus the entry count — the quantities the
// cache's own accounting must match exactly — failing if the list
// disagrees with the map.
func sumEntryCosts(t *testing.T, c *SynthCache) (bytes int64, entries int) {
	t.Helper()
	bytes, entries, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	return bytes, entries
}

// checkAccounting asserts the LRU accounting invariants: Σ per-entry
// costs equals the reported size, the reported size never exceeds the
// budget, and the recency lists agree with the maps.
func checkAccounting(t *testing.T, c *SynthCache) {
	t.Helper()
	wantBytes, wantEntries := sumEntryCosts(t, c)
	u := c.Usage()
	if u.Bytes != wantBytes {
		t.Fatalf("accounting drift: reported %d bytes, Σ entry costs %d", u.Bytes, wantBytes)
	}
	if u.Entries != wantEntries {
		t.Fatalf("entry count drift: reported %d, walked %d", u.Entries, wantEntries)
	}
	if c.Budget() > 0 && u.Bytes > c.Budget() {
		t.Fatalf("cache size %d exceeds budget %d", u.Bytes, c.Budget())
	}
}

// lutEqual compares the ny-row grids two LUTs describe cell by cell,
// whatever their layout (contiguous, or a view of a wider parent).
func lutEqual(a, b bearingLUT, ny int) bool {
	if a.nx != b.nx {
		return false
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < a.nx; ix++ {
			ia, ib := iy*a.stride+ix, iy*b.stride+ix
			if a.bin[ia] != b.bin[ib] || a.frac[ia] != b.frac[ib] {
				return false
			}
		}
	}
	return true
}

// copyLUT returns a contiguous private copy of an ny-row LUT.
func copyLUT(l bearingLUT, ny int) bearingLUT {
	out := bearingLUT{nx: l.nx, stride: l.nx}
	for iy := 0; iy < ny; iy++ {
		out.bin = append(out.bin, l.bin[iy*l.stride:iy*l.stride+l.nx]...)
		out.frac = append(out.frac, l.frac[iy*l.stride:iy*l.stride+l.nx]...)
	}
	return out
}

// TestSynthCacheAccountingProperty is the LRU accounting property
// test: after any interleaving of LUT gets, block-window gets, and
// the evictions they trigger — over random AP positions, grid
// geometries, and sub-grids, against a deliberately small budget —
// the sum of per-entry costs equals the reported size, the size never
// exceeds the cap, and a re-Get after eviction rebuilds a
// bit-identical LUT.
func TestSynthCacheAccountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	aps := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(39.5, 0.7), geom.Pt(20, 15.6)}
	full, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(40, 16), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 12, 1 << 16, 1 << 20} {
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			c := NewSynthCache(budget)
			// Remember the first build of every key so later re-gets
			// (post-eviction rebuilds included) can be compared bit for
			// bit.
			seen := map[synthKey]bearingLUT{}
			for op := 0; op < 400; op++ {
				ap := aps[rng.Intn(len(aps))]
				spec := full
				if rng.Intn(2) == 0 { // a random sub-grid of full
					x0, y0 := rng.Intn(full.Nx), rng.Intn(full.Ny)
					nx, ny := 1+rng.Intn(full.Nx-x0), 1+rng.Intn(full.Ny-y0)
					spec = GridSpec{Min: full.Min, Cell: full.Cell, Nx: nx, Ny: ny, X0: x0, Y0: y0}
				}
				var lut bearingLUT
				switch rng.Intn(3) {
				case 0:
					lut = c.lut(ap, spec, 360)
				case 1:
					lut = c.lutFor(ap, spec, &full, 360)
				default:
					c.blockWindows(ap, spec, 360, &full)
				}
				if lut.bin != nil {
					key := keyOf(ap, spec, 360)
					if prev, ok := seen[key]; ok {
						if !lutEqual(prev, lut, spec.Ny) {
							t.Fatalf("op %d: re-Get returned a LUT differing from the first build", op)
						}
					} else {
						seen[key] = copyLUT(lut, spec.Ny)
					}
				}
				checkAccounting(t, c)
			}
			u := c.Usage()
			if budget > 0 && u.Evictions == 0 && u.Bytes > budget/2 {
				t.Logf("warning: no evictions at budget %d (bytes %d)", budget, u.Bytes)
			}
			t.Logf("budget %d: entries=%d bytes=%d hits=%d misses=%d evictions=%d",
				budget, u.Entries, u.Bytes, u.Hits, u.Misses, u.Evictions)
		})
	}
}

// TestSynthCacheRebuildBitIdentical pins the eviction contract
// explicitly for both build paths: evict an entry by churning the
// cache past the budget, re-Get it, and require `==` on every table
// element — for a directly built full-grid LUT and for a sub-grid LUT
// that is a view of its parent on one get and rebuilt from scratch
// (parent evicted too) on the other.
func TestSynthCacheRebuildBitIdentical(t *testing.T) {
	ap := geom.Pt(1.25, 0.75)
	full, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(20, 8), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sub := GridSpec{Min: full.Min, Cell: full.Cell, Nx: 9, Ny: 7, X0: 11, Y0: 5}

	churn := func(c *SynthCache, rng *rand.Rand) {
		// Insert enough distinct entries to cycle the whole LRU.
		for i := 0; i < 64; i++ {
			pos := geom.Pt(rng.Float64()*40, rng.Float64()*16)
			c.lut(pos, full, 360)
		}
	}

	c := NewSynthCache(1 << 18)
	rng := rand.New(rand.NewSource(91))

	// Direct build path.
	first := copyLUT(c.lut(ap, full, 360), full.Ny)
	churn(c, rng)
	if got := c.lut(ap, full, 360); !lutEqual(first, got, full.Ny) {
		t.Fatal("re-Get after eviction rebuilt a different full-grid LUT")
	}

	// View path: warm the parent, view the sub-grid through it, then
	// churn the parent out and re-Get the sub-grid with no parent cached
	// — the direct rebuild must equal the view bit for bit (the GridSpec
	// offset keeps the centre arithmetic identical). The view itself
	// adds no entry.
	parent := c.lut(ap, full, 360)
	entries := c.Usage().Entries
	view := c.lutFor(ap, sub, &full, 360)
	if &view.bin[0] != &parent.bin[sub.Y0*parent.stride+sub.X0] {
		t.Fatal("sub-grid LUT was not served as a view of the cached parent")
	}
	viewed := copyLUT(view, sub.Ny)
	if c.Usage().Entries != entries {
		t.Fatalf("a view of the parent added %d cache entries, want none", c.Usage().Entries-entries)
	}
	churn(c, rng)
	rebuilt := c.lutFor(ap, sub, nil, 360)
	if !lutEqual(viewed, rebuilt, sub.Ny) {
		t.Fatal("direct rebuild of sub-grid LUT differs from the view of its parent")
	}
}

// TestSynthCachePromotesParentOnThirdSliceableMiss: a region-only
// workload (the full-grid parent never warmed by a full-area fix) builds
// and caches the parent on its first region query; every later region
// is a view of it, bit-identical to a direct build, and no region-keyed
// LUT entry is ever inserted.
func TestSynthCachePromotesParentOnThirdSliceableMiss(t *testing.T) {
	ap := geom.Pt(0.5, 0.5)
	full, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(20, 8), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSynthCache(32 << 20)
	var subs []GridSpec
	for i := 0; i < 6; i++ {
		sub, err := subSpecFor(full, geom.Pt(float64(1+2*i), 1), geom.Pt(float64(4+2*i), 5))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		got := c.lutFor(ap, sub, &full, 360)
		if direct := buildLUT(ap, sub, 360); !lutEqual(got, direct, sub.Ny) {
			t.Fatalf("region %d: view differs from direct build", i)
		}
		// One entry, the parent: built by the first query (the one
		// miss), viewed by every query after it (one hit each).
		if u := c.Usage(); u.Entries != 1 || u.Misses != 1 || u.Hits != uint64(i) {
			t.Fatalf("after region %d: entries=%d misses=%d hits=%d, want 1, 1, %d",
				i, u.Entries, u.Misses, u.Hits, i)
		}
	}
	if _, ok := c.Get(keyOf(ap, full, 360)); !ok {
		t.Fatal("parent not resident after the first region query")
	}
	for i, sub := range subs {
		if _, ok := c.Get(keyOf(ap, sub, 360)); ok {
			t.Fatalf("region %d has a LUT entry of its own", i)
		}
	}
}

// TestSynthCacheNoPromoteWhenParentCannotFit: under a budget that
// cannot retain the parent, every region query builds the parent,
// serves a view of it equal to a direct build, and retains nothing.
func TestSynthCacheNoPromoteWhenParentCannotFit(t *testing.T) {
	ap := geom.Pt(0.5, 0.5)
	full, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(20, 8), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// 2673-cell parent costs ~32 KB; a 16 KB budget cannot hold it.
	c := NewSynthCache(16 << 10)
	for i := 0; i < 8; i++ {
		sub, err := subSpecFor(full, geom.Pt(float64(1+2*i), 1), geom.Pt(float64(3+2*i), 3))
		if err != nil {
			t.Fatal(err)
		}
		got := c.lutFor(ap, sub, &full, 360)
		if direct := buildLUT(ap, sub, 360); !lutEqual(got, direct, sub.Ny) {
			t.Fatalf("region %d: view differs from direct build", i)
		}
	}
	if u := c.Usage(); u.Entries != 0 || u.Bytes != 0 {
		t.Fatalf("entries=%d bytes=%d under a budget that cannot hold the parent, want none", u.Entries, u.Bytes)
	}
	checkAccounting(t, c)
}

// TestSynthCachePassThroughOversized: a positive budget never retains an
// entry costing more than it — however small the budget, which must not
// read as the unbounded 0 — yet the entry is served, and accounting
// stays exact.
func TestSynthCachePassThroughOversized(t *testing.T) {
	ap := geom.Pt(3, 4)
	spec, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(10, 10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1024, 7} { // the LUT costs ~5 KB: it fits neither
		c := NewSynthCache(budget)
		l1 := c.lut(ap, spec, 360)
		l2 := c.lut(ap, spec, 360)
		if !lutEqual(l1, l2, spec.Ny) {
			t.Fatal("pass-through rebuilds disagree")
		}
		u := c.Usage()
		if u.Entries != 0 || u.Bytes != 0 {
			t.Fatalf("budget %d: oversized entry retained: entries=%d bytes=%d", budget, u.Entries, u.Bytes)
		}
		if u.Evictions == 0 {
			t.Fatal("expected the oversized inserts to count as evictions")
		}
		checkAccounting(t, c)
		// Block windows on a never-retained entry must still be served.
		if bl := c.blockWindows(ap, spec, 360, nil); bl == nil {
			t.Fatal("block windows not served for pass-through entry")
		}
		checkAccounting(t, c)
	}
}

// TestSynthCacheOversizedDoesNotEvictResidents: serving an entry
// larger than the budget must not flush the resident entries
// (regression: insert-then-evict used to pop every innocent entry off
// the tail before reaching the oversized head).
func TestSynthCacheOversizedDoesNotEvictResidents(t *testing.T) {
	small, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(4, 4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(40, 16), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Budget holding several small entries but far below the huge
	// entry's cost.
	c := NewSynthCache(8 * lutCost(small.Cells()))
	if lutCost(huge.Cells()) <= c.Budget() {
		t.Fatalf("test fixture broken: huge entry fits the budget")
	}
	resident := geom.Pt(1, 1)
	c.lut(resident, small, 360)
	if c.lut(geom.Pt(2, 2), huge, 360).bin == nil {
		t.Fatal("oversized entry not served")
	}
	hits0 := c.Usage().Hits
	c.lut(resident, small, 360)
	if hits := c.Usage().Hits; hits != hits0+1 {
		t.Fatal("oversized pass-through evicted a resident entry")
	}
	checkAccounting(t, c)
}

// TestSynthCacheEvictionRaceStress is the -race stress satellite: 64
// goroutines submit distinct ad-hoc regions against a deliberately
// tiny budget so eviction churns mid-flight, and every result must be
// bit-identical to a cold uncached run (same argmax cell, same
// localized position) while the accounted size never exceeds the cap.
func TestSynthCacheEvictionRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	min, max := synthBounds()
	const goroutines = 64

	type regionCase struct {
		region Region
		aps    []APSpectrum
		cell   int // cold argmax cell
		pos    geom.Point
	}
	cases := make([]regionCase, goroutines)
	scenes := make([][]APSpectrum, 8)
	for i := range scenes {
		scenes[i] = synthScene(3, geom.Pt(3+rng.Float64()*34, 2+rng.Float64()*12), rng)
	}
	for i := range cases {
		x0 := rng.Float64() * 30
		y0 := rng.Float64() * 10
		cases[i].region = Region{
			Min: geom.Pt(x0, y0),
			Max: geom.Pt(x0+2+rng.Float64()*8, y0+2+rng.Float64()*5),
		}
		cases[i].aps = scenes[i%len(scenes)]
		// Cold reference: a fresh unbounded cache per case, serial.
		sg, err := NewSynthGridRegion(min, max, cases[i].region, SynthOptions{Cell: 0.25, Workers: 1, Cache: NewSynthCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		if cases[i].cell, err = sg.RefinedArgmaxCell(cases[i].aps); err != nil {
			t.Fatal(err)
		}
		var perr error
		if cases[i].pos, perr = sg.Localize(cases[i].aps); perr != nil {
			t.Fatal(perr)
		}
	}

	// Budget sized so entries fit individually but churn collectively:
	// two of the ~125 KB full-floor LUTs at most.
	const budget = 1 << 18
	shared := NewSynthCache(budget)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := cases[g]
			sg, err := NewSynthGridRegion(min, max, tc.region, SynthOptions{Cell: 0.25, Workers: 2, Cache: shared})
			if err != nil {
				errs <- err
				return
			}
			for it := 0; it < 4; it++ {
				cell, err := sg.RefinedArgmaxCell(tc.aps)
				if err != nil {
					errs <- err
					return
				}
				if cell != tc.cell {
					errs <- fmt.Errorf("goroutine %d it %d: argmax %d under churn, cold run %d", g, it, cell, tc.cell)
					return
				}
				pos, err := sg.Localize(tc.aps)
				if err != nil {
					errs <- err
					return
				}
				if pos != tc.pos {
					errs <- fmt.Errorf("goroutine %d it %d: fix %v under churn, cold run %v", g, it, pos, tc.pos)
					return
				}
				if u := shared.Usage(); u.Bytes > budget {
					errs <- fmt.Errorf("goroutine %d it %d: cache %d bytes exceeds %d budget", g, it, u.Bytes, budget)
					return
				}
				runtime.Gosched()
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u := shared.Usage()
	if u.Evictions == 0 {
		t.Fatalf("stress run evicted nothing (bytes=%d, budget=%d): budget not tight enough to exercise churn", u.Bytes, budget)
	}
	t.Logf("stress: entries=%d bytes=%d hits=%d misses=%d evictions=%d",
		u.Entries, u.Bytes, u.Hits, u.Misses, u.Evictions)
}

// TestSynthCacheLRUOrder: once the budget is full, the least-recently-
// used entry is the one evicted, and touching an entry protects it.
func TestSynthCacheLRUOrder(t *testing.T) {
	spec, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(4, 4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Budget for exactly four entries.
	c := NewSynthCache(4 * lutCost(spec.Cells()))
	a, b, d, e, f := geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(3, 1), geom.Pt(4, 1), geom.Pt(5, 1)
	c.lut(a, spec, 360)
	c.lut(b, spec, 360)
	c.lut(d, spec, 360)
	c.lut(e, spec, 360) // now full
	c.lut(a, spec, 360) // touch a: b becomes the LRU
	c.lut(f, spec, 360) // evicts b
	if u := c.Usage(); u.Entries != 4 || u.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d after one insert past a full budget, want 4 and 1", u.Entries, u.Evictions)
	}
	hits0 := c.Usage().Hits
	for _, ap := range []geom.Point{a, d, e, f} {
		c.lut(ap, spec, 360)
	}
	if hits := c.Usage().Hits; hits != hits0+4 {
		t.Fatal("a surviving entry was evicted; LRU order not respected")
	}
	missesBefore := c.Usage().Misses
	c.lut(b, spec, 360)
	if c.Usage().Misses != missesBefore+1 {
		t.Fatal("b should have been evicted and rebuilt")
	}
	checkAccounting(t, c)
}

// TestSynthCacheTwoChoiceCollisionProof: two full-floor LUTs at the
// paper's 10 cm pitch, each costing half the budget — far over an eighth
// of it, the most a budget split eight ways could hold — both stay
// resident under one pool, so a warm round-robin over them hits every
// time and evicts nothing, whatever their keys.
func TestSynthCacheTwoChoiceCollisionProof(t *testing.T) {
	min, max := synthBounds()
	spec, err := GridSpecFor(min, max, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSynthCache(2 * lutCost(spec.Cells()))
	aps := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(39.5, 15.5)}
	for _, ap := range aps {
		c.lut(ap, spec, 360)
	}
	hits0 := c.Usage().Hits
	for round := 0; round < 3; round++ {
		for _, ap := range aps {
			c.lut(ap, spec, 360)
		}
	}
	u := c.Usage()
	if got := u.Hits - hits0; got != 6 {
		t.Fatalf("warm round-robin over two full-floor LUTs: %d hits, want 6", got)
	}
	if u.Evictions != 0 || u.Spills != 0 {
		t.Fatalf("%d evictions, %d spills under a budget holding both entries", u.Evictions, u.Spills)
	}
	checkAccounting(t, c)
}

// TestSynthCacheSpillCounter: oversized pass-throughs are surfaced as
// Spills (besides the historical eviction count).
func TestSynthCacheSpillCounter(t *testing.T) {
	c := NewSynthCache(1024) // nothing fits
	spec, err := GridSpecFor(geom.Pt(0, 0), geom.Pt(10, 10), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c.lut(geom.Pt(3, 4), spec, 360)
	c.lut(geom.Pt(5, 1), spec, 360)
	if u := c.Usage(); u.Spills != 2 {
		t.Fatalf("Spills = %d, want 2", u.Spills)
	}
}
