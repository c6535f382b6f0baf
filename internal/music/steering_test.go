package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/array"
	"repro/internal/geom"
)

// steeringCases spans the geometries the pipeline actually uses: row
// sizes from Figure 16's sweep, with and without the ninth antenna,
// assorted orientations, a circular array, and non-default bin counts.
var steeringCases = []struct {
	name   string
	build  func() *array.Array
	lambda float64
	bins   int
}{
	{"linear-4", func() *array.Array { return array.NewLinear(geom.Pt(0, 0), 0, 4, 0.1225) }, 0.1225, 360},
	{"linear-8", func() *array.Array { return array.NewLinear(geom.Pt(2, 3), math.Pi/3, 8, 0.1225) }, 0.1225, 360},
	{"linear-8-ninth", func() *array.Array {
		a := array.NewLinear(geom.Pt(1, 1), -math.Pi/4, 8, 0.1225)
		a.NinthAntenna = true
		return a
	}, 0.1225, 360},
	{"linear-6-5ghz", func() *array.Array { return array.NewLinear(geom.Pt(0, 0), math.Pi/2, 6, 0.0577) }, 0.0577, 720},
	{"circular-8", func() *array.Array { return array.NewCircular(geom.Pt(5, 5), 0.08, 8) }, 0.1225, 180},
}

// TestSteeringTableMatchesDirect: a table holds, bit for bit, the
// steering vectors of its array moved to the origin, and those of the
// array where it stands to 1e-12 (the element offsets round at the
// array's position, by up to a few ulps of its coordinates).
func TestSteeringTableMatchesDirect(t *testing.T) {
	for _, tc := range steeringCases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build()
			at := *a
			at.Pos = geom.Point{}
			tab := NewSteeringTable(a, tc.lambda, tc.bins)
			if tab.Bins() != tc.bins || tab.Elements() != a.NumElements() {
				t.Fatalf("table %dx%d, want %dx%d", tab.Bins(), tab.Elements(), tc.bins, a.NumElements())
			}
			var worst float64
			for i := 0; i < tc.bins; i++ {
				theta := 2 * math.Pi * float64(i) / float64(tc.bins)
				want := at.SteeringVector(theta, tc.lambda)
				placed := a.SteeringVector(theta, tc.lambda)
				got := tab.Vector(i)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("bin %d element %d: table %v, direct at the origin %v", i, k, got[k], want[k])
					}
					worst = math.Max(worst, cmplx.Abs(got[k]-placed[k]))
				}
			}
			if worst > 1e-12 {
				t.Fatalf("table deviates %g from the steering vectors at the array's position, want ≤ 1e-12", worst)
			}
			t.Logf("== at the origin; within %.2g at %v", worst, a.Pos)
		})
	}
}

// TestSteeringTableIndependentOfPosition: two arrays of one geometry at
// different positions build the same table bit for bit — complex
// vectors, split planes, votes and weights — so whichever AP builds a
// shared table first decides nothing.
func TestSteeringTableIndependentOfPosition(t *testing.T) {
	for _, tc := range steeringCases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.build(), tc.build()
			b.Pos = geom.Pt(b.Pos.X+17.3, b.Pos.Y-4.1)
			ta, tb := NewSteeringTable(a, tc.lambda, tc.bins), NewSteeringTable(b, tc.lambda, tc.bins)
			if !slices.Equal(ta.data, tb.data) || !slices.Equal(ta.re, tb.re) || !slices.Equal(ta.im, tb.im) {
				t.Fatalf("steering vectors differ between %v and %v", a.Pos, b.Pos)
			}
			if !slices.Equal(ta.votes, tb.votes) || !slices.Equal(ta.weightBins, tb.weightBins) || !slices.Equal(ta.weights, tb.weights) {
				t.Fatalf("vote or weight lookups differ between %v and %v", a.Pos, b.Pos)
			}
		})
	}
}

// TestCachedSpectrumMatchesUncached is the steering cache's correctness
// anchor: the full ComputeSpectrumWS chain must produce the same spectra
// as the MUSIC oracle recomputing a(θ) per bin over the same noise
// subspace. The table scan runs in the lag domain, so the spectra agree
// to the scans' stated bound (scanTol).
func TestCachedSpectrumMatchesUncached(t *testing.T) {
	const tol = scanTol
	for _, tc := range steeringCases {
		if tc.name == "circular-8" {
			continue // ComputeSpectrumWS's smoothing chain targets linear rows
		}
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build()
			rng := rand.New(rand.NewSource(42))
			streams := synth(a, []float64{0.7, 2.1}, []complex128{1, 0.6i}, 48, true, 0.05, rng)
			opt := Options{
				Wavelength:      tc.lambda,
				SmoothingGroups: 2,
				MaxSamples:      10,
				SampleOffset:    8,
				ForwardBackward: true,
				Bins:            tc.bins,
			}
			ws := &Workspace{}
			snaps, err := CalibratedSnapshotsWS(ws, streams[:a.N], opt.SampleOffset, opt.MaxSamples, opt.CalibrationOffsets)
			if err != nil {
				t.Fatal(err)
			}
			noise, err := noiseSubspace(ws, snaps, a.N, opt)
			if err != nil {
				t.Fatal(err)
			}
			plain := MUSIC(noise, func(theta float64) []complex128 {
				return a.SteeringVectorRow(theta, tc.lambda)[:noise.Rows]
			}, tc.bins)
			opt.Steering = NewSteeringCache(0)
			cached, err := ComputeSpectrumWS(nil, a, streams[:a.N], opt)
			if err != nil {
				t.Fatal(err)
			}
			if cached.Bins() != plain.Bins() {
				t.Fatalf("bins %d vs %d", cached.Bins(), plain.Bins())
			}
			for i := range plain.P {
				if d := math.Abs(cached.P[i] - plain.P[i]); d > tol {
					t.Fatalf("bin %d: cached %.17g, uncached %.17g (Δ=%g)", i, cached.P[i], plain.P[i], d)
				}
			}
		})
	}
}

func TestCachedBartlettAndSymmetryMatchUncached(t *testing.T) {
	const tol = 1e-12
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	rng := rand.New(rand.NewSource(7))
	streams := synth(a, []float64{0.9}, []complex128{1}, 32, false, 0.02, rng)
	snaps := SnapshotsAt(streams, 0, 0)
	rFull, err := CorrelationMatrixWS(nil, snaps)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSteeringCache(0)
	tab := cache.Table(a, lambda, DefaultBins)

	plainB := Bartlett(rFull, func(theta float64) []complex128 {
		return a.SteeringVector(theta, lambda)
	}, DefaultBins)
	cachedB := BartlettWithTableWS(nil, rFull, tab)
	for i := range plainB.P {
		if d := math.Abs(cachedB.P[i] - plainB.P[i]); d > tol {
			t.Fatalf("bartlett bin %d: Δ=%g", i, d)
		}
	}

	// Same spectrum through both symmetry-removal paths.
	base := NewSpectrum(DefaultBins)
	for i := range base.P {
		base.P[i] = rng.Float64()
	}
	plainS := SymmetryRemoval(base.Clone(), a, rFull, lambda)
	cachedS := tab.RemoveSymmetryWS(nil, base.Clone(), rFull)
	for i := range plainS.P {
		if d := math.Abs(cachedS.P[i] - plainS.P[i]); d > tol {
			t.Fatalf("symmetry bin %d: Δ=%g", i, d)
		}
	}
}

// TestVoteAndWeightTablesMatchScalar pins the two per-orientation
// lookups hung on the steering table bit-identical (==) to the scalar
// paths that call math.Sin / Mod / Remainder per bin: same Bartlett
// spectrum in, same suppressed / weighted spectrum out, for every
// geometry case and a sweep of awkward orientations.
func TestVoteAndWeightTablesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arrays := make([]*array.Array, 0, 16)
	bins := make([]int, 0, 16)
	for _, tc := range steeringCases {
		arrays = append(arrays, tc.build())
		bins = append(bins, tc.bins)
	}
	for _, orient := range []float64{0.3, -2.9, 7.5, geom.Rad(15), geom.Rad(-165), math.Pi, 1e-9} {
		a := array.NewLinear(geom.Pt(0, 0), orient, 8, lambda)
		a.NinthAntenna = true
		arrays = append(arrays, a)
		bins = append(bins, DefaultBins)
	}
	for k, a := range arrays {
		tab := NewSteeringTable(a, lambda, bins[k])
		for trial := 0; trial < 5; trial++ {
			s, b := randomSpectrum(bins[k], rng), randomSpectrum(bins[k], rng)
			requireSameSpectrum(t, "mirror vote", tab.removeSymmetry(s.Clone(), b), symmetryRemovalAgainst(s.Clone(), a, b))
			requireSameSpectrum(t, "geometry weighting", tab.ApplyGeometryWeighting(s.Clone()), s.Clone().ApplyGeometryWeighting(a.Orient))
		}
		if len(tab.votes)+len(tab.weightBins) == 0 {
			t.Fatalf("array %d: empty vote and weight tables", k)
		}
	}
}

func TestSteeringCacheReusesTables(t *testing.T) {
	c := NewSteeringCache(0)
	a1 := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a2 := array.NewLinear(geom.Pt(9, 4), 0, 8, lambda) // same layout, different position
	t1 := c.Table(a1, lambda, 360)
	t2 := c.Table(a2, lambda, 360)
	if t1 != t2 {
		t.Error("same geometry at different positions should share one table")
	}
	if got := c.Usage().Entries; got != 1 {
		t.Errorf("cache holds %d tables, want 1", got)
	}
	if u := c.Usage(); u.Hits != 1 || u.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", u.Hits, u.Misses)
	}

	// Distinct geometry, wavelength, or resolution must not collide.
	variants := []*array.Array{
		array.NewLinear(geom.Pt(0, 0), 0.1, 8, lambda), // different orient
		array.NewLinear(geom.Pt(0, 0), 0, 4, lambda),   // different N
		array.NewCircular(geom.Pt(0, 0), lambda/2, 8),  // different layout
	}
	for _, v := range variants {
		if c.Table(v, lambda, 360) == t1 {
			t.Errorf("distinct geometry %+v collided with base table", v)
		}
	}
	if c.Table(a1, lambda*2, 360) == t1 || c.Table(a1, lambda, 180) == t1 {
		t.Error("wavelength/bins variants collided with base table")
	}
	ninth := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	ninth.NinthAntenna = true
	if c.Table(ninth, lambda, 360) == t1 {
		t.Error("ninth-antenna variant collided with base table")
	}
}

// TestSteeringCacheBudgetLRU: the bounded cache evicts least-recently
// used tables at insert time, accounting stays exact (Σ costs ==
// Bytes ≤ Budget at every step), and re-Gets after eviction return
// bit-identical tables.
func TestSteeringCacheBudgetLRU(t *testing.T) {
	one := steeringCost(NewSteeringTable(array.NewLinear(geom.Pt(0, 0), 0, 4, lambda), lambda, 90))
	c := NewSteeringCache(3 * one) // room for exactly three 4-element 90-bin tables
	mk := func(n int) *array.Array { return array.NewLinear(geom.Pt(0, 0), float64(n)*0.01, 4, lambda) }

	var first *SteeringTable
	for i := 0; i < 5; i++ {
		tab := c.Table(mk(i), lambda, 90)
		if i == 0 {
			first = tab
		}
		u := c.Usage()
		if u.Budget != 3*one {
			t.Fatalf("Budget = %d, want %d", u.Budget, 3*one)
		}
		if u.Bytes > u.Budget {
			t.Fatalf("after insert %d: %d bytes exceeds %d budget", i, u.Bytes, u.Budget)
		}
		if want := int64(u.Entries) * one; u.Bytes != want {
			t.Fatalf("after insert %d: Bytes %d != %d entries × %d cost", i, u.Bytes, u.Entries, one)
		}
	}
	u := c.Usage()
	if u.Entries != 3 || u.Evictions != 2 {
		t.Fatalf("usage %+v, want 3 entries / 2 evictions", u)
	}
	// Geometry 0 was evicted; a re-Get rebuilds an identical table.
	rebuilt := c.Table(mk(0), lambda, 90)
	if rebuilt == first {
		t.Fatal("evicted table pointer survived")
	}
	if len(rebuilt.data) != len(first.data) {
		t.Fatal("rebuilt table shape differs")
	}
	for i := range rebuilt.data {
		if rebuilt.data[i] != first.data[i] {
			t.Fatalf("rebuilt table differs at %d", i)
		}
	}
	// Recency: touch the now-oldest resident, insert a new geometry,
	// and the touched one must survive.
	c.Table(mk(2), lambda, 90) // freshen 2
	c.Table(mk(9), lambda, 90) // evicts 3 (LRU), not 2
	h0 := c.Usage().Hits
	c.Table(mk(2), lambda, 90)
	if h1 := c.Usage().Hits; h1 != h0+1 {
		t.Fatal("recently touched table was evicted out of LRU order")
	}
}

// TestSteeringUsageCountsWhatIsHeld: after the planes went lag-major the
// accounting still charges exactly the slices a table holds — complex
// table, both planes, vote and weight lookups — and every plane entry is
// the matching element of the complex table.
func TestSteeringUsageCountsWhatIsHeld(t *testing.T) {
	c := NewSteeringCache(0)
	var want int64
	for _, g := range []struct {
		n, bins int
		ninth   bool
	}{{8, 360, true}, {8, 361, false}, {4, 90, true}} {
		a := array.NewLinear(geom.Pt(0, 0), 0.1*float64(g.n), g.n, lambda)
		a.NinthAntenna = g.ninth
		tab := c.Table(a, lambda, g.bins)
		n := a.NumElements()
		if len(tab.data) != g.bins*n || len(tab.re) != g.bins*n || len(tab.im) != g.bins*n {
			t.Fatalf("%+v: table holds %d complex, %d + %d plane entries, want %d each", g, len(tab.data), len(tab.re), len(tab.im), g.bins*n)
		}
		for i := 0; i < g.bins; i++ {
			for k, v := range tab.Vector(i) {
				if tab.re[k*g.bins+i] != real(v) || tab.im[k*g.bins+i] != imag(v) {
					t.Fatalf("%+v: plane entry (bin %d, element %d) is not the table's", g, i, k)
				}
			}
		}
		want += int64(len(tab.data))*16 + int64(len(tab.re)+len(tab.im))*8 +
			int64(cap(tab.votes))*int64(unsafe.Sizeof(mirrorVote{})) +
			int64(cap(tab.weightBins))*4 + int64(cap(tab.weights))*8 + steeringEntryOverhead
	}
	if u := c.Usage(); u.Entries != 3 || u.Bytes != want {
		t.Fatalf("usage %+v, want 3 entries holding %d bytes", u, want)
	}
}

// TestSteeringCacheOversizedPassThrough: a table larger than the
// whole budget is served but never retained, and does not flush
// residents.
func TestSteeringCacheOversizedPassThrough(t *testing.T) {
	small := array.NewLinear(geom.Pt(0, 0), 0, 4, lambda)
	c := NewSteeringCache(steeringCost(NewSteeringTable(small, lambda, 90)))
	c.Table(small, lambda, 90) // resident
	big := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	if got := c.Table(big, lambda, 3600); got == nil {
		t.Fatal("oversized table not served")
	}
	u := c.Usage()
	if u.Entries != 1 {
		t.Fatalf("entries = %d after oversized lookup, want the small resident only", u.Entries)
	}
	if u.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the pass-through)", u.Evictions)
	}
	h0 := c.Usage().Hits
	c.Table(small, lambda, 90)
	if h1 := c.Usage().Hits; h1 != h0+1 {
		t.Fatal("oversized pass-through flushed the resident")
	}
}

func TestSteeringCacheConcurrent(t *testing.T) {
	c := NewSteeringCache(0)
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	var wg sync.WaitGroup
	tables := make([]*SteeringTable, 16)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = c.Table(a, lambda, 360)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tables); i++ {
		if tables[i] != tables[0] {
			t.Fatal("concurrent lookups returned non-canonical tables")
		}
	}
	if c.Usage().Entries != 1 {
		t.Fatalf("cache holds %d tables, want 1", c.Usage().Entries)
	}
}
