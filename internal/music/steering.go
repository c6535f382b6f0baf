package music

// Steering-vector caching. MUSIC and Bartlett evaluate a(θ) for every
// one of the spectrum's bins (360 by default) on every frame, and
// computing it per bin per call allocates a fresh []complex128 each
// time. The steering vector depends only on the array *geometry*
// (element layout relative to element 0), the carrier wavelength, and
// the bin count — not on the array's position or on the received
// samples — so one precomputed table serves every frame of every client
// heard by an AP with that geometry, and identical APs share a single
// table. The complex table is bin-major for the closure oracles; the
// split planes the serving scans read hold the same entries lag-major,
// one contiguous column per array element (see SteeringTable.re).

import (
	"math"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/lru"
	"repro/internal/mat"
)

// SteeringTable holds a(θᵢ) for every bin bearing θᵢ = 2πi/bins of one
// (array geometry, wavelength, bins) combination, stored row-major.
// Tables are immutable after construction and safe for concurrent use.
type SteeringTable struct {
	bins int
	n    int // elements per steering vector
	data []complex128
	// Split re/im planes of data, transposed to lag-major: element k of
	// bin i is re[k·bins+i], im[k·bins+i], so column k of every bin (on a
	// uniform row, lag k) is one contiguous run for the scans in
	// packed.go to stream. Values are exactly real/imag of data[i·n+k],
	// so packed and complex consumers see the same table.
	re, im []float64
	// row is the number of leading columns forming a uniform linear row
	// (the array's N for array.Linear, 0 for any other geometry). Over
	// those columns a_q·conj(a_p) = a_{q−p}, which the lag-domain scans
	// in packed.go rely on; a ninth antenna is column row.
	row int

	// Per-(orientation, bins) lookups for the combine stage, which
	// would otherwise re-derive them with math.Sin / Mod / Remainder for
	// every bin of every AP of every fix. votes holds, for each bin
	// outside the 15° axis margin, the §2.3.4 mirror vote's two
	// BinLookup pairs; weightBins/weights hold Eq. 7's weight for each
	// bin inside it. Both are built from the same per-bearing functions
	// the scalar paths call (mirrorBearing, axisWeight), so table-driven
	// and scalar results are bit-identical.
	votes      []mirrorVote
	weightBins []int32
	weights    []float64
}

// mirrorVote is one bin's precomputed symmetry vote: the interpolation
// pairs of the bin's own bearing and of its mirror across the array
// axis, as BinLookup returns them.
type mirrorVote struct {
	bin               int32
	selfBin, mirBin   int32
	selfFrac, mirFrac float64
}

// NewSteeringTable precomputes the steering matrix for the array's full
// element set (ninth antenna included when present), and the
// orientation-dependent vote and weight lookups. It builds from a copy
// of the array moved to the origin, whose element offsets carry no
// rounding at the array's position, so the table is a function of the
// cache key alone: every AP of a geometry gets the same bits, whichever
// of them built it first.
func NewSteeringTable(a *array.Array, lambda float64, bins int) *SteeringTable {
	at := *a
	at.Pos = geom.Point{}
	a = &at
	n := a.NumElements()
	t := &SteeringTable{
		bins: bins, n: n,
		data: make([]complex128, bins*n),
		re:   make([]float64, bins*n),
		im:   make([]float64, bins*n),
		// Every bin lands in at most one of each list; sizing both for
		// all bins keeps a table's footprint independent of orientation.
		votes:      make([]mirrorVote, 0, bins),
		weightBins: make([]int32, 0, bins),
		weights:    make([]float64, 0, bins),
	}
	if a.Geom == array.Linear {
		t.row = a.N
	}
	for i := 0; i < bins; i++ {
		theta := 2 * math.Pi * float64(i) / float64(bins)
		for k, v := range a.SteeringVector(theta, lambda) {
			t.data[i*n+k], t.re[k*bins+i], t.im[k*bins+i] = v, real(v), imag(v)
		}
		if mirror, ok := mirrorBearing(theta, a.Orient); ok {
			sb, sf := BinLookup(theta, bins)
			mb, mf := BinLookup(mirror, bins)
			t.votes = append(t.votes, mirrorVote{
				bin:     int32(i),
				selfBin: int32(sb), selfFrac: sf,
				mirBin: int32(mb), mirFrac: mf,
			})
		}
		if w, ok := axisWeight(theta, a.Orient); ok {
			t.weightBins = append(t.weightBins, int32(i))
			t.weights = append(t.weights, w)
		}
	}
	return t
}

// column returns element k of the n bins from lo, sliced to exactly n so
// a loop over n bins needs no bounds checks.
func (t *SteeringTable) column(k, lo, n int) (re, im []float64) {
	return t.re[k*t.bins+lo:][:n], t.im[k*t.bins+lo:][:n]
}

// gather copies the first len(re) elements of bin i out of the planes,
// for the kernels that walk one steering vector at a time.
func (t *SteeringTable) gather(i int, re, im []float64) {
	for k := range re {
		re[k], im[k] = t.re[k*t.bins+i], t.im[k*t.bins+i]
	}
}

// ApplyGeometryWeighting is s.ApplyGeometryWeighting(orient) for the
// orientation this table was built for, with the per-bin weights read
// from the table. s must have the table's bin count. Returns s.
func (t *SteeringTable) ApplyGeometryWeighting(s *Spectrum) *Spectrum {
	neutral := s.mean()
	for k, i := range t.weightBins {
		w := t.weights[k]
		s.P[i] = w*s.P[i] + (1-w)*neutral
	}
	return s
}

// removeSymmetry is symmetryRemovalAgainst with both lookups of every
// vote read from the table: s loses symmetrySuppressFactor wherever the
// Bartlett spectrum b is clearly stronger at the bin's mirror.
func (t *SteeringTable) removeSymmetry(s, b *Spectrum) *Spectrum {
	for _, v := range t.votes {
		if b.atBin(v.mirBin, v.mirFrac) > symmetryLoseMargin*b.atBin(v.selfBin, v.selfFrac) {
			s.P[v.bin] *= symmetrySuppressFactor
		}
	}
	return s
}

// Bins returns the table's angular resolution.
func (t *SteeringTable) Bins() int { return t.bins }

// Elements returns the length of each steering vector.
func (t *SteeringTable) Elements() int { return t.n }

// Vector returns a(θᵢ) as a read-only view into the table. Callers must
// not modify it; slice it ([:sub]) to restrict to a leading subarray.
func (t *SteeringTable) Vector(i int) []complex128 {
	return t.data[i*t.n : (i+1)*t.n : (i+1)*t.n]
}

// steeringKey captures everything a steering table depends on. The
// array's absolute position cancels out of the element-relative phase
// differences, so two APs at different positions with the same layout
// share one table.
type steeringKey struct {
	geom    array.Geometry
	n       int
	ninth   bool
	spacing float64
	orient  float64
	lambda  float64
	bins    int
}

func keyFor(a *array.Array, lambda float64, bins int) steeringKey {
	return steeringKey{
		geom:    a.Geom,
		n:       a.N,
		ninth:   a.NinthAntenna && a.Geom == array.Linear,
		spacing: a.Spacing,
		orient:  a.Orient,
		lambda:  lambda,
		bins:    bins,
	}
}

// DefaultSteeringCacheBudget bounds the process-wide shared cache. A
// 360-bin, 9-element table costs ~120 KB (complex table, split planes,
// vote and weight lookups), so the default holds a few hundred distinct
// geometries — far beyond any static deployment, but a hard ceiling if
// per-request array geometries ever arrive from the wire.
const DefaultSteeringCacheBudget int64 = 32 << 20

// steeringEntryOverhead approximates an entry's fixed footprint
// (struct, map header, LRU links) so small tables are not
// undercounted.
const steeringEntryOverhead = 128

// steeringCost is one table's accounted byte footprint: the complex
// table, its two split planes, and the vote and weight lookups.
func steeringCost(t *SteeringTable) int64 {
	return int64(len(t.data))*16 + int64(len(t.re)+len(t.im))*8 +
		int64(cap(t.votes))*32 + int64(cap(t.weightBins))*4 + int64(cap(t.weights))*8 +
		steeringEntryOverhead
}

// SteeringCache memoizes steering tables per geometry key: an
// lru.Cache charging each table its footprint (steeringCost). Safe for
// concurrent use.
type SteeringCache struct {
	*lru.Cache[steeringKey, *SteeringTable]
}

// NewSteeringCache returns an empty cache holding at most budget bytes
// of table state (0 = unbounded).
func NewSteeringCache(budget int64) *SteeringCache {
	return &SteeringCache{lru.New[steeringKey, *SteeringTable](budget)}
}

var sharedSteering = NewSteeringCache(DefaultSteeringCacheBudget)

// SharedSteeringCache returns the process-wide cache: what a nil
// Options.Steering or core.Config.Steering resolves to.
func SharedSteeringCache() *SteeringCache { return sharedSteering }

// Table returns the steering table for (array geometry, wavelength,
// bins), computing and memoizing it on first use. Concurrent first
// lookups may compute the table more than once but converge on one
// (unless it is too large for the budget, in which case each caller
// keeps its own identical copy).
func (c *SteeringCache) Table(a *array.Array, lambda float64, bins int) *SteeringTable {
	key := keyFor(a, lambda, bins)
	if t, ok := c.Get(key); ok {
		return t
	}
	t := NewSteeringTable(a, lambda, bins)
	return c.Add(key, t, steeringCost(t))
}

// RemoveSymmetryWS is the §2.3.4 mirror vote against this table: the
// Bartlett spectrum of the full (ninth antenna included) correlation
// matrix, then removeSymmetry on s in place. The scan's scratch and
// spectrum come from ws.
func (t *SteeringTable) RemoveSymmetryWS(ws *Workspace, s *Spectrum, rFull *mat.Matrix) *Spectrum {
	ws = orFresh(ws)
	b := BartlettWithTableWS(ws, rFull, t)
	t.removeSymmetry(s, b)
	ws.Recycle(b)
	return s
}
