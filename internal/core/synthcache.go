package core

// SynthCache: the size-accounted, sharded LRU behind the synthesis
// subsystem. The first staged-synthesis cut memoized bearing LUTs in
// an unbounded map — fine for static deployments (a handful of APs ×
// one grid), fatal for per-request ad-hoc search regions, where every
// distinct bounding box mints new entries forever. This cache keeps
// the lock-cheap hot path (one shard mutex per lookup) and adds:
//
//   - byte accounting: every entry's cost is its LUT footprint plus
//     the screening-block bin windows derived for it, and the sum of
//     entry costs is the reported size, exactly (property-tested);
//   - a hard budget: each of the shards holds at most budget/shards
//     bytes, evicting least-recently-used entries at insert time
//     inside the same critical section — the externally visible size
//     never exceeds the budget, even mid-churn. An entry larger than
//     a shard's budget is built, served, and not retained;
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
)

// synthShards is the number of independently locked LRU segments.
const synthShards = 8

// DefaultSynthCacheBudget bounds the process-wide shared cache:
// roomy for dozens of full-floor grids plus region churn, small
// enough that a region-query flood cannot grow the heap unboundedly.
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

// sliceableMissTableCap bounds the per-shard miss-counter table
// against unbounded key churn (hostile grids); when full it is simply
// cleared — counting restarts, promotion is delayed, correctness is
// unaffected.
const sliceableMissTableCap = 512

// lutCost is the byte footprint of a fine bearing LUT: one int32 bin
// plus one float64 fraction per cell, plus the entry overhead.
func lutCost(cells int) int64 { return int64(cells)*12 + synthEntryOverhead }

// blockCost is the byte footprint of one screening-block window
// table: two int32 per block and per superblock.
func blockCost(bl *blockLUT) int64 { return int64(len(bl.start)+len(bl.superStart)) * 8 }

// synthEntry is one cached (AP position, grid geometry, bins) unit:
// the fine LUT and the screening-block windows derived from it, with
// LRU links and the summed byte cost. Entries are owned by exactly
// one shard and mutated only under its lock.
type synthEntry struct {
	key        synthKey
	lut        bearingLUT
	blocks     *blockLUT
	cost       int64
	prev, next *synthEntry
}

// synthShard is one LRU segment: a map for lookup plus an intrusive
// recency list (head = most recent, tail = eviction victim).
type synthShard struct {
	mu      sync.Mutex
	entries map[synthKey]*synthEntry
	head    *synthEntry
	tail    *synthEntry
	bytes   int64
	// sliceableMiss counts, per absent parent key, region builds that
	// could have been views had the parent been resident — the
	// promotion trigger for region-only workloads.
	sliceableMiss map[synthKey]uint32
}

func (sh *synthShard) unlink(e *synthEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *synthShard) pushFront(e *synthEntry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *synthShard) moveFront(e *synthEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// SynthCache memoizes bearing LUTs and their screening-block bin
// windows per (AP position, grid geometry, bins) under a byte budget,
// the synthesis-layer sibling of music.SteeringCache. Safe for
// concurrent use; lookups lock only the key's candidate shards.
//
// Placement is power-of-two-choices: each key hashes to two candidate
// shards and a new entry is inserted into the less-loaded one (first
// choice on ties). A single-choice layout thrashes on dense-pitch
// LUTs — at 2 cm a full-floor LUT is ~19 MB, one or two fit per
// shard, and two hot APs whose keys collide on a shard evict each
// other forever while the other shards sit idle. Two choices make
// that collision require both candidates to collide, and the
// less-loaded rule steers dense entries toward empty shards. Each
// shard still independently enforces budget/shards, so the hard
// budget invariant is unchanged.
type SynthCache struct {
	budget         atomic.Int64 // total bytes; 0 means unbounded; resized by SetBudget
	shards         [synthShards]synthShard
	hits           atomic.Uint64
	misses         atomic.Uint64
	evictions      atomic.Uint64
	slices         atomic.Uint64
	secondChoice   atomic.Uint64
	spills         atomic.Uint64
	denseEvictions atomic.Uint64
}

// SynthCacheUsage is a snapshot of the cache's accounting and
// counters, surfaced through engine.Stats and the server's stats dump.
type SynthCacheUsage struct {
	// Entries is the number of LUT entries held.
	Entries int
	// Bytes is the summed cost of held entries; never exceeds Budget
	// when a budget is set.
	Bytes int64
	// Budget is the configured byte cap (0 = unbounded).
	Budget int64
	// Hits and Misses count lookups (LUT and block-window level).
	Hits, Misses uint64
	// Evictions counts entries dropped to stay within the budget
	// (oversized pass-through serves included, as they always were).
	Evictions uint64
	// Slices counts sub-grid LUTs served as views of a cached full-grid
	// parent instead of recomputing bearings.
	Slices uint64
	// SecondChoice counts entries placed in their second-choice shard
	// because the first was more loaded — the two-choice placements
	// that would have collided under single-choice hashing.
	SecondChoice uint64
	// Spills counts entries served without retention because they
	// exceed a shard's budget slice (LUT pass-throughs and
	// block-window serves on unretainable entries).
	Spills uint64
	// DenseEvictions counts evicted entries at dense-LUT scale
	// (cost ≥ 4 MiB): churn here means dense-pitch grids are fighting
	// for residency and the budget likely needs raising.
	DenseEvictions uint64
}

// denseEntryBytes is the cost above which an evicted entry counts as
// dense-LUT churn: region and full-floor LUTs at default pitch stay
// well under it, 2 cm-class LUTs (~19 MB per AP on the reference
// floor) are far over it.
const denseEntryBytes = 4 << 20

// NewSynthCache returns an empty, unbounded cache (the static-
// deployment configuration: a few APs × one grid geometry).
func NewSynthCache() *SynthCache { return NewSynthCacheBudget(0) }

// NewSynthCacheBudget returns an empty cache holding at most budget
// bytes of LUT state (0 = unbounded). The budget is split evenly
// across the internal shards, so any single entry costing more than
// budget/8 is served but not retained.
func NewSynthCacheBudget(budget int64) *SynthCache {
	if budget < 0 {
		budget = 0
	}
	c := &SynthCache{}
	c.budget.Store(budget)
	for i := range c.shards {
		c.shards[i].entries = make(map[synthKey]*synthEntry)
	}
	return c
}

var sharedSynth = NewSynthCacheBudget(DefaultSynthCacheBudget)

// SharedSynthCache returns the process-wide cache that
// core.DefaultConfig wires into every pipeline by default.
func SharedSynthCache() *SynthCache { return sharedSynth }

// Budget returns the live byte cap (0 = unbounded).
func (c *SynthCache) Budget() int64 { return c.budget.Load() }

// SetBudget hot-reloads the byte cap (≤0 = unbounded). Shrinking
// evicts least-recently-used entries shard by shard inside each
// shard's critical section, so the visible size converges to the new
// budget before SetBudget returns and never exceeds it afterwards.
// Growing simply leaves more room. Callers mid-lookup are unaffected:
// they hold plain pointers to immutable LUTs.
func (c *SynthCache) SetBudget(budget int64) {
	if budget < 0 {
		budget = 0
	}
	c.budget.Store(budget)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.evictOverLocked(sh)
		sh.mu.Unlock()
	}
}

func (c *SynthCache) shardBudget() int64 {
	b := c.budget.Load()
	if b == 0 {
		return 0 // unbounded
	}
	return b / synthShards
}

// shardPair returns the key's two candidate shard indices: the FNV-1a
// hash picks the first, a splitmix-style remix of the same hash picks
// the second (bumped to the next shard when both land together, so
// every key always has two distinct candidates).
func shardPair(key synthKey) (int, int) {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(math.Float64bits(key.apX))
	mix(math.Float64bits(key.apY))
	mix(math.Float64bits(key.minX))
	mix(math.Float64bits(key.minY))
	mix(math.Float64bits(key.cell))
	mix(uint64(key.nx))
	mix(uint64(key.ny))
	mix(uint64(key.x0))
	mix(uint64(key.y0))
	mix(uint64(key.bins))
	i1 := int(h % synthShards)
	h2 := h ^ (h >> 33)
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	i2 := int(h2 % synthShards)
	if i2 == i1 {
		i2 = (i1 + 1) % synthShards
	}
	return i1, i2
}

// shardOf returns the key's first-choice shard (tests and the miss
// accounting key off it; entries may reside in either candidate).
func (c *SynthCache) shardOf(key synthKey) *synthShard {
	i1, _ := shardPair(key)
	return &c.shards[i1]
}

// lockPair locks the key's two candidate shards in index order (the
// global lock order — both sites that hold two shard locks use it, so
// the pair can never deadlock) and returns them first-choice first.
func (c *SynthCache) lockPair(key synthKey) (first, second *synthShard) {
	i1, i2 := shardPair(key)
	lo, hi := i1, i2
	if lo > hi {
		lo, hi = hi, lo
	}
	c.shards[lo].mu.Lock()
	c.shards[hi].mu.Lock()
	return &c.shards[i1], &c.shards[i2]
}

func unlockPair(a, b *synthShard) {
	a.mu.Unlock()
	b.mu.Unlock()
}

// evictOverLocked drops least-recently-used entries until the shard
// fits its budget slice. Called with sh.mu held, inside the same
// critical section as the insert that grew the shard, so readers
// never observe the cache over budget.
func (c *SynthCache) evictOverLocked(sh *synthShard) {
	limit := c.shardBudget()
	if limit == 0 {
		return
	}
	for sh.bytes > limit && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.cost
		c.evictions.Add(1)
		if victim.cost >= denseEntryBytes {
			c.denseEvictions.Add(1)
		}
	}
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
// or built and memoized, under its own key. Concurrent first lookups
// may build more than once; exactly one result is kept.
func (c *SynthCache) lutFor(ap geom.Point, spec GridSpec, parent *GridSpec, bins int) bearingLUT {
	lut, _ := c.lutOrView(ap, spec, parent, bins)
	return lut
}

// lutOrView is lutFor, also reporting whether the result is a view of
// the parent's tables (and so has no entry of its own).
func (c *SynthCache) lutOrView(ap geom.Point, spec GridSpec, parent *GridSpec, bins int) (lut bearingLUT, viewed bool) {
	if parent != nil && spec.subGridOf(*parent) {
		if lut, ok := c.viewOfParent(ap, spec, *parent, bins); ok {
			return lut, true
		}
	}
	key := keyOf(ap, spec, bins)
	if lut, ok := c.lookupLUT(key); ok {
		c.hits.Add(1)
		return lut, false
	}

	fresh := buildLUT(ap, spec, bins)
	c.misses.Add(1)
	first, second := c.lockPair(key)
	defer unlockPair(first, second)
	if e, sh := entryIn(key, first, second); e != nil {
		sh.moveFront(e)
		if e.lut.bin == nil {
			// A windows-only entry left by a view whose parent has since
			// gone: serve the build; the parent's next promotion brings
			// the views back.
			return fresh, false
		}
		return e.lut, false
	}
	e := &synthEntry{key: key, lut: fresh, cost: lutCost(spec.Cells())}
	if limit := c.shardBudget(); limit > 0 && e.cost > limit {
		// Larger than a shard's whole slice: serve it without
		// retaining it (a spill, counted as an eviction too, as it
		// always was), and crucially without inserting first —
		// insert-then-evict would flush every innocent entry off the
		// shard's tail before reaching this one.
		c.evictions.Add(1)
		c.spills.Add(1)
		return fresh, false
	}
	c.evictOverLocked(c.placeLocked(first, second, e))
	return fresh, false
}

// placeLocked inserts a new entry by two-choice placement — the
// less-loaded candidate, first choice on ties — and returns the shard
// that took it. Both locks must be held; the caller evicts.
func (c *SynthCache) placeLocked(first, second *synthShard, e *synthEntry) *synthShard {
	target := first
	if second.bytes < first.bytes {
		target = second
		c.secondChoice.Add(1)
	}
	target.entries[e.key] = e
	target.pushFront(e)
	target.bytes += e.cost
	return target
}

// lookupLUT probes the key's candidate shards (first choice, then
// second) for an entry holding tables and freshens its recency on a
// hit. The caller counts hits/misses.
func (c *SynthCache) lookupLUT(key synthKey) (bearingLUT, bool) {
	i1, i2 := shardPair(key)
	for _, i := range [2]int{i1, i2} {
		sh := &c.shards[i]
		sh.mu.Lock()
		if e := sh.entries[key]; e != nil && e.lut.bin != nil {
			sh.moveFront(e)
			sh.mu.Unlock()
			return e.lut, true
		}
		sh.mu.Unlock()
	}
	return bearingLUT{}, false
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
	plut, ok := c.lookupLUT(pkey)
	if ok {
		c.hits.Add(1)
	} else {
		// Miss counting lives on the parent's first-choice shard
		// regardless of where a promotion would place it.
		psh := c.shardOf(pkey)
		psh.mu.Lock()
		promote := false
		// Never promote a parent the budget could not retain anyway:
		// the build would repeat every sliceablePromoteMisses-th miss
		// without ever paying off.
		if limit := c.shardBudget(); limit == 0 || lutCost(parent.Cells()) <= limit {
			if psh.sliceableMiss == nil {
				psh.sliceableMiss = make(map[synthKey]uint32)
			} else if len(psh.sliceableMiss) >= sliceableMissTableCap {
				clear(psh.sliceableMiss)
			}
			n := psh.sliceableMiss[pkey] + 1
			if n >= sliceablePromoteMisses {
				promote = true
				delete(psh.sliceableMiss, pkey)
			} else {
				psh.sliceableMiss[pkey] = n
			}
		}
		psh.mu.Unlock()
		if !promote {
			return bearingLUT{}, false
		}
		// lutFor inserts the parent under the normal budget rules (and
		// dedups a concurrent promotion); view whatever it returns.
		plut = c.lutFor(ap, parent, nil, bins)
	}
	c.slices.Add(1)
	return plut.view(parent, spec), true
}

// blockWindows returns the screening-block bin windows for (AP
// position, grid), derived from the fine LUT and memoized on
// the grid's entry (parent as in lutFor). A view of the parent has no
// entry; its windows — rebuilt they cost more than evaluating the
// region outright — are memoized on a windows-only one (no tables, the
// overhead plus the windows as its cost), so a re-queried region stays
// as warm as it was when its LUT was a copy.
func (c *SynthCache) blockWindows(ap geom.Point, spec GridSpec, bins int, parent *GridSpec) *blockLUT {
	key := keyOf(ap, spec, bins)
	var lut bearingLUT
	first, second := c.lockPair(key)
	if e, sh := entryIn(key, first, second); e != nil {
		if e.blocks != nil {
			sh.moveFront(e)
			unlockPair(first, second)
			c.hits.Add(1)
			return e.blocks
		}
		lut = e.lut
	}
	unlockPair(first, second)

	viewed := false
	if lut.bin == nil {
		lut, viewed = c.lutOrView(ap, spec, parent, bins)
	}
	fresh := buildBlockLUT(lut, spec, DefaultCoarseFactor, bins)
	c.misses.Add(1)
	first, second = c.lockPair(key)
	defer unlockPair(first, second)
	e, sh := entryIn(key, first, second)
	switch {
	case e == nil && !viewed:
		// The entry churned out between the build and this insert (or
		// was never retained): serve the windows without accounting.
		return fresh
	case e == nil:
		// A view: start a windows-only entry, placed below if it fits.
		e = &synthEntry{key: key, cost: synthEntryOverhead}
	case e.blocks != nil:
		sh.moveFront(e)
		return e.blocks
	}
	cost := blockCost(fresh)
	if limit := c.shardBudget(); limit > 0 && e.cost+cost > limit {
		// The entry's LUT fits but LUT + windows would not: serve the
		// windows uncached (a spill) and keep the (more expensive to
		// rebuild) LUT resident rather than evicting neighbours to
		// make room.
		c.evictions.Add(1)
		c.spills.Add(1)
		return fresh
	}
	if sh == nil {
		sh = c.placeLocked(first, second, e)
	}
	e.blocks = fresh
	e.cost += cost
	sh.bytes += cost
	sh.moveFront(e)
	c.evictOverLocked(sh)
	return fresh
}

// entryIn finds key in whichever candidate shard holds it. Both locks
// must be held.
func entryIn(key synthKey, first, second *synthShard) (*synthEntry, *synthShard) {
	if e := first.entries[key]; e != nil {
		return e, first
	}
	if e := second.entries[key]; e != nil {
		return e, second
	}
	return nil, nil
}

// Len returns the number of distinct LUT entries held.
func (c *SynthCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit and miss counts (diagnostics).
func (c *SynthCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Usage returns the cache's accounting snapshot. Each shard is read
// under its own lock; since every shard independently holds at most
// budget/shards bytes, the summed Bytes never exceeds Budget.
func (c *SynthCache) Usage() SynthCacheUsage {
	u := SynthCacheUsage{
		Budget:         c.budget.Load(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Slices:         c.slices.Load(),
		SecondChoice:   c.secondChoice.Load(),
		Spills:         c.spills.Load(),
		DenseEvictions: c.denseEvictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		u.Entries += len(sh.entries)
		u.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return u
}
