package core

// SynthCache: the memo behind the synthesis subsystem, an lru.Cache of
// bearing LUTs and screening-block windows. The first staged-synthesis
// cut memoized bearing LUTs in an unbounded map — fine for static
// deployments (a handful of APs × one grid), fatal for per-fix search
// regions (the predictive path's boxes), where every distinct bounding
// box mints new entries forever. On top of the lru's byte budget, two-choice placement
// and pass-through, this cache adds:
//
//   - two kinds of entry per (AP position, grid geometry, bins): the
//     fine LUT, and the screening-block bin windows derived from it,
//     each charged its own footprint and evicted on its own;
//   - LUT derivation: a region grid that is lattice-aligned with a
//     cached full grid is served a view of the parent's LUT — the
//     parent's tables at an offset and the parent's row stride, no
//     copy, no atan2 per cell, no entry of its own — and reads values
//     bit-identical to a direct build because sub-grid specs carry
//     their lattice offset (GridSpec.X0/Y0), so both paths evaluate
//     the same centre arithmetic.
//
// Eviction only ever drops memoization: LUT tables are immutable,
// callers (views included) hold plain slices of them, and a re-Get
// rebuilds a bit-identical table.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/lru"
)

// synthShards is the number of independently locked LRU segments.
// Placement is power-of-two-choices across them: at 2 cm pitch a
// full-floor LUT is ~19 MB, one or two fit per shard, and two hot APs
// whose keys collided on a single-choice shard evicted each other
// forever while the other shards sat idle.
const synthShards = 8

// DefaultSynthCacheBudget bounds the process-wide shared cache:
// roomy for dozens of full-floor grids plus region churn, small
// enough that distinct regions cannot grow the heap unboundedly.
const DefaultSynthCacheBudget int64 = 256 << 20

// synthEntryOverhead approximates an entry's fixed footprint (struct,
// map header, LRU links) so accounting does not undercount small
// entries.
const synthEntryOverhead = 128

// sliceablePromoteMisses is how many region LUT builds may miss the
// same absent full-grid parent before the parent itself is built and
// cached: a region-only workload (no full-area fixes ever warming the
// parent) stops paying an atan2 per cell per distinct region and
// is served views of the parent from then on. Two misses are tolerated so a
// one-off region query never triggers a full-grid build it would not
// amortize.
const sliceablePromoteMisses = 3

// sliceableMissTableCap bounds the miss-counter table against
// unbounded key churn (hostile grids); when full it is simply cleared —
// counting restarts, promotion is delayed, correctness is unaffected.
const sliceableMissTableCap = 512

// lutCost is the byte footprint of a fine bearing LUT: one int32 bin
// plus one float64 fraction per cell, plus the entry overhead.
func lutCost(cells int) int64 { return int64(cells)*12 + synthEntryOverhead }

// blockCost is the byte footprint of one screening-block window
// table: two int32 per block and per superblock, plus the entry
// overhead.
func blockCost(bl *blockLUT) int64 {
	return int64(len(bl.start)+len(bl.superStart))*8 + synthEntryOverhead
}

// synthTables is one entry's value: a LUT entry's tables, or a windows
// entry's windows.
type synthTables struct {
	lut    bearingLUT
	blocks *blockLUT
}

// Hash is synthKey's lru.Key hash: FNV-1a over every field.
func (k synthKey) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{
		math.Float64bits(k.apX), math.Float64bits(k.apY),
		math.Float64bits(k.minX), math.Float64bits(k.minY), math.Float64bits(k.cell),
		uint64(k.nx), uint64(k.ny), uint64(k.x0), uint64(k.y0), uint64(k.bins),
	} {
		h ^= v
		h *= 1099511628211
	}
	if k.windows {
		h ^= 1
		h *= 1099511628211
	}
	return h
}

// SynthCache memoizes bearing LUTs and their screening-block bin
// windows per (AP position, grid geometry, bins) under a byte budget,
// the synthesis-layer sibling of music.SteeringCache. Safe for
// concurrent use; lookups lock only the key's candidate shards.
type SynthCache struct {
	*lru.Cache[synthKey, synthTables]
	slices atomic.Uint64
	// sliceableMiss counts, per absent parent key, region builds that
	// could have been views had the parent been resident — the
	// promotion trigger for region-only workloads.
	missMu        sync.Mutex
	sliceableMiss map[synthKey]uint32
}

// SynthCacheUsage is a snapshot of the cache's accounting and
// counters, for /metrics and the server's stats log.
type SynthCacheUsage struct {
	lru.Usage
	// Slices counts sub-grid LUTs served as views of a cached full-grid
	// parent instead of recomputing bearings.
	Slices uint64
}

// NewSynthCache returns an empty cache holding at most budget bytes
// of LUT and window state (0 = unbounded). The budget is split evenly
// across the internal shards, so any single entry costing more than
// budget/8 is served but not retained.
func NewSynthCache(budget int64) *SynthCache {
	return &SynthCache{
		Cache:         lru.New[synthKey, synthTables](synthShards, budget),
		sliceableMiss: make(map[synthKey]uint32),
	}
}

var sharedSynth = NewSynthCache(DefaultSynthCacheBudget)

// SharedSynthCache returns the process-wide cache that
// core.DefaultConfig wires into every pipeline by default.
func SharedSynthCache() *SynthCache { return sharedSynth }

// Usage returns the cache's accounting snapshot.
func (c *SynthCache) Usage() SynthCacheUsage {
	return SynthCacheUsage{Usage: c.Cache.Usage(), Slices: c.slices.Load()}
}

// lut returns the bearing LUT for (AP position, grid, bins), building
// and memoizing it on first use.
func (c *SynthCache) lut(ap geom.Point, spec GridSpec, bins int) bearingLUT {
	return c.lutFor(ap, spec, nil, bins)
}

// lutFor is lut with an optional parent grid: when the requested spec
// is a lattice-aligned sub-grid of parent and the parent's LUT is
// cached, the result is a view of it (bit-identical to a direct build)
// and nothing is built or inserted. Otherwise the LUT is looked up,
// or built and memoized, under its own key.
func (c *SynthCache) lutFor(ap geom.Point, spec GridSpec, parent *GridSpec, bins int) bearingLUT {
	if parent != nil && spec.subGridOf(*parent) {
		if lut, ok := c.viewOfParent(ap, spec, *parent, bins); ok {
			return lut
		}
	}
	key := keyOf(ap, spec, bins)
	if v, ok := c.Get(key); ok {
		return v.lut
	}
	return c.Add(key, synthTables{lut: buildLUT(ap, spec, bins)}, lutCost(spec.Cells())).lut
}

// viewOfParent serves a sub-grid's LUT as a view of its parent's when
// the parent is resident (a hit, which also freshens the parent's
// recency — the full grid is the hot ancestor of every aligned region
// and must not churn out under region pressure). Misses against an
// absent parent are counted; the sliceablePromoteMisses-th one builds
// and caches the parent, so a region-only workload stops rebuilding
// its regions from scratch. ok is false while the parent stays absent.
func (c *SynthCache) viewOfParent(ap geom.Point, spec, parent GridSpec, bins int) (lut bearingLUT, ok bool) {
	pkey := keyOf(ap, parent, bins)
	v, ok := c.Get(pkey)
	if !ok {
		// Never promote a parent the budget could not retain anyway:
		// the build would repeat every sliceablePromoteMisses-th miss
		// without ever paying off.
		if !c.Fits(lutCost(parent.Cells())) || !c.countSliceableMiss(pkey) {
			return bearingLUT{}, false
		}
		// lutFor inserts the parent under the normal budget rules (and
		// dedups a concurrent promotion); view whatever it returns.
		v.lut = c.lutFor(ap, parent, nil, bins)
	}
	c.slices.Add(1)
	return v.lut.view(parent, spec), true
}

// countSliceableMiss counts one sliceable miss against the absent
// parent pkey and reports whether it is the one that promotes it.
func (c *SynthCache) countSliceableMiss(pkey synthKey) bool {
	c.missMu.Lock()
	defer c.missMu.Unlock()
	if len(c.sliceableMiss) >= sliceableMissTableCap {
		clear(c.sliceableMiss)
	}
	n := c.sliceableMiss[pkey] + 1
	if n < sliceablePromoteMisses {
		c.sliceableMiss[pkey] = n
		return false
	}
	delete(c.sliceableMiss, pkey)
	return true
}

// blockWindows returns the screening-block bin windows for (AP
// position, grid), derived from the fine LUT (parent as in lutFor) and
// memoized as an entry of their own, so a re-queried region whose LUT
// is a view stays as warm as a full grid.
func (c *SynthCache) blockWindows(ap geom.Point, spec GridSpec, bins int, parent *GridSpec) *blockLUT {
	key := keyOf(ap, spec, bins)
	key.windows = true
	if v, ok := c.Get(key); ok {
		return v.blocks
	}
	fresh := buildBlockLUT(c.lutFor(ap, spec, parent, bins), spec, DefaultCoarseFactor, bins)
	return c.Add(key, synthTables{blocks: fresh}, blockCost(fresh)).blocks
}
