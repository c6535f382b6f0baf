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
	"sync"
	"sync/atomic"

	"repro/internal/array"
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
// orientation-dependent vote and weight lookups.
func NewSteeringTable(a *array.Array, lambda float64, bins int) *SteeringTable {
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

// steeringEntry is one cached table with its LRU links and cost.
type steeringEntry struct {
	key        steeringKey
	table      *SteeringTable
	cost       int64
	prev, next *steeringEntry
}

// SteeringUsage is a snapshot of the cache's accounting and counters,
// surfaced through engine.Stats and the server's stats dump.
type SteeringUsage struct {
	// Entries is the number of tables held.
	Entries int
	// Bytes is the summed cost of held tables; never exceeds Budget
	// when a budget is set.
	Bytes int64
	// Budget is the configured byte cap (0 = unbounded).
	Budget int64
	// Hits and Misses count lookups; Evictions counts tables dropped
	// (or served unretained) to stay within the budget.
	Hits, Misses, Evictions uint64
}

// SteeringCache memoizes steering tables per geometry key under an
// optional byte budget, with the same size-accounted LRU treatment as
// core.SynthCache: entry cost is the table footprint, the reported
// size is the exact sum of held costs, eviction happens inside the
// insert's critical section (the visible size never exceeds the
// budget), and an entry larger than the whole budget is served
// without being retained. Safe for concurrent use. Geometry keys are
// a handful in static deployments, so one mutex (not shards) keeps
// the hot path a single short critical section that also freshens
// recency.
type SteeringCache struct {
	budget atomic.Int64 // 0 means unbounded; resized by SetBudget

	mu      sync.Mutex
	tables  map[steeringKey]*steeringEntry
	head    *steeringEntry
	tail    *steeringEntry
	bytes   int64
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

// NewSteeringCache returns an empty, unbounded cache (the static-
// deployment configuration: a handful of geometries ever).
func NewSteeringCache() *SteeringCache { return NewSteeringCacheBudget(0) }

// NewSteeringCacheBudget returns an empty cache holding at most
// budget bytes of table state (0 = unbounded).
func NewSteeringCacheBudget(budget int64) *SteeringCache {
	if budget < 0 {
		budget = 0
	}
	c := &SteeringCache{tables: make(map[steeringKey]*steeringEntry)}
	c.budget.Store(budget)
	return c
}

var sharedSteering = NewSteeringCacheBudget(DefaultSteeringCacheBudget)

// SharedSteeringCache returns the process-wide cache: what a nil
// Options.Steering or core.Config.Steering resolves to.
func SharedSteeringCache() *SteeringCache { return sharedSteering }

// Budget returns the live byte cap (0 = unbounded).
func (c *SteeringCache) Budget() int64 { return c.budget.Load() }

// SetBudget hot-reloads the byte cap (≤0 = unbounded). Shrinking
// evicts least-recently-used tables inside the cache's critical
// section before returning; growing leaves more room. Tables already
// handed out stay valid — they are immutable.
func (c *SteeringCache) SetBudget(budget int64) {
	if budget < 0 {
		budget = 0
	}
	c.budget.Store(budget)
	c.mu.Lock()
	c.evictOverLocked()
	c.mu.Unlock()
}

// evictOverLocked drops LRU tables until the cache fits its budget.
// Caller holds c.mu.
func (c *SteeringCache) evictOverLocked() {
	budget := c.budget.Load()
	for budget > 0 && c.bytes > budget && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.tables, victim.key)
		c.bytes -= victim.cost
		c.evicted.Add(1)
	}
}

func (c *SteeringCache) unlink(e *steeringEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *SteeringCache) pushFront(e *steeringEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *SteeringCache) moveFront(e *steeringEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// Table returns the steering table for (array geometry, wavelength,
// bins), computing and memoizing it on first use. Concurrent first
// lookups may compute the table more than once; exactly one result is
// kept, so callers always converge on a canonical table (unless the
// budget forces pass-through, in which case each caller keeps its own
// identical copy for the duration of the call).
func (c *SteeringCache) Table(a *array.Array, lambda float64, bins int) *SteeringTable {
	key := keyFor(a, lambda, bins)
	c.mu.Lock()
	if e, ok := c.tables[key]; ok {
		c.moveFront(e)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.table
	}
	c.mu.Unlock()

	fresh := NewSteeringTable(a, lambda, bins)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.tables[key]; ok {
		c.moveFront(e)
		c.hits.Add(1)
		return e.table
	}
	c.misses.Add(1)
	e := &steeringEntry{key: key, table: fresh, cost: steeringCost(fresh)}
	if budget := c.budget.Load(); budget > 0 && e.cost > budget {
		// Larger than the whole budget: serve without retaining, and
		// without flushing innocent residents first.
		c.evicted.Add(1)
		return fresh
	}
	c.tables[key] = e
	c.pushFront(e)
	c.bytes += e.cost
	c.evictOverLocked()
	return fresh
}

// Len returns the number of distinct tables held.
func (c *SteeringCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables)
}

// Stats returns cumulative hit and miss counts (diagnostics).
func (c *SteeringCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Usage returns the cache's accounting snapshot.
func (c *SteeringCache) Usage() SteeringUsage {
	u := SteeringUsage{
		Budget:    c.budget.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
	}
	c.mu.Lock()
	u.Entries = len(c.tables)
	u.Bytes = c.bytes
	c.mu.Unlock()
	return u
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
