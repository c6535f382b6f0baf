package core

// SynthCache: the memo behind the synthesis subsystem, an lru.Cache of
// bearing LUTs and screening-block windows. The first staged-synthesis
// cut memoized bearing LUTs in an unbounded map — fine for static
// deployments (a handful of APs × one grid), fatal for per-fix search
// regions (the predictive path's boxes), where every distinct bounding
// box mints new entries forever. On top of the lru's byte budget and
// pass-through, this cache adds:
//
//   - two kinds of entry per (AP position, grid geometry, bins): the
//     fine LUT, and the screening-block bin windows derived from it,
//     each charged its own footprint and evicted on its own;
//   - LUT derivation: a region grid's LUT is always a view of its
//     full-grid parent's — the parent's tables at an offset and the
//     parent's row stride, no copy, no atan2 per cell, no entry of its
//     own — built and cached on a miss like any full-grid LUT. It reads
//     values bit-identical to a direct build because sub-grid specs
//     carry their lattice offset (GridSpec.X0/Y0), so both paths
//     evaluate the same centre arithmetic. A region follows full-grid
//     fixes on the same grid, so the parent is normally resident.
//
// Eviction only ever drops memoization: LUT tables are immutable,
// callers (views included) hold plain slices of them, and a re-Get
// rebuilds a bit-identical table.

import (
	"repro/internal/geom"
	"repro/internal/lru"
)

// DefaultSynthCacheBudget bounds the process-wide shared cache:
// roomy for dozens of full-floor grids plus region churn, small
// enough that distinct regions cannot grow the heap unboundedly.
const DefaultSynthCacheBudget int64 = 256 << 20

// synthEntryOverhead approximates an entry's fixed footprint (struct,
// map header, LRU links) so accounting does not undercount small
// entries.
const synthEntryOverhead = 128

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

// SynthCache memoizes bearing LUTs and their screening-block bin
// windows per (AP position, grid geometry, bins) under a byte budget,
// the synthesis-layer sibling of music.SteeringCache. Safe for
// concurrent use.
type SynthCache struct {
	*lru.Cache[synthKey, synthTables]
}

// NewSynthCache returns an empty cache holding at most budget bytes
// of LUT and window state (0 = unbounded). An entry costing more than
// the whole budget is served but not retained.
func NewSynthCache(budget int64) *SynthCache {
	return &SynthCache{Cache: lru.New[synthKey, synthTables](budget)}
}

var sharedSynth = NewSynthCache(DefaultSynthCacheBudget)

// SharedSynthCache returns the process-wide cache that
// core.DefaultConfig wires into every pipeline by default.
func SharedSynthCache() *SynthCache { return sharedSynth }

// lut returns the bearing LUT for (AP position, grid, bins), building
// and memoizing it on first use.
func (c *SynthCache) lut(ap geom.Point, spec GridSpec, bins int) bearingLUT {
	key := keyOf(ap, spec, bins)
	if v, ok := c.Get(key); ok {
		return v.lut
	}
	return c.Add(key, synthTables{lut: buildLUT(ap, spec, bins)}, lutCost(spec.Cells())).lut
}

// lutFor is lut with an optional parent grid: a region sub-grid
// (parent non-nil) is served as a view of the parent's LUT, which is
// looked up — freshening the full grid, the hot ancestor of every
// region — or built and memoized; the region itself gets no entry.
func (c *SynthCache) lutFor(ap geom.Point, spec GridSpec, parent *GridSpec, bins int) bearingLUT {
	if parent == nil {
		return c.lut(ap, spec, bins)
	}
	return c.lut(ap, *parent, bins).view(*parent, spec)
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
