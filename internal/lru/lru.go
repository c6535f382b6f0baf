// Package lru is the size-accounted, sharded least-recently-used cache
// under the server's memos (music.SteeringCache, core.SynthCache):
//
//   - byte accounting: every entry carries the cost its owner charged
//     at Add, and Usage's Bytes is the exact sum of held costs;
//   - a hard budget: each of the shards holds at most budget/shards
//     bytes, evicting least-recently-used entries inside the insert's
//     critical section, so the visible size never exceeds the budget.
//     An entry larger than a shard's slice is served without being
//     retained and without evicting anything (a spill);
//   - power-of-two-choices placement: a key hashes to two candidate
//     shards and a new entry goes to the one holding fewer bytes (the
//     first on ties). With a single choice, two hot dense entries
//     whose keys collide evict each other forever while the other
//     shards sit idle; two choices need both candidates to collide.
//
// Eviction only drops memoization: values are immutable once added,
// callers keep what Get and Add returned, and a rebuild after eviction
// is the caller's, under the same key.
package lru

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Key is a cache key. Hash picks the key's candidate shards; it must be
// deterministic so that callers can construct collisions.
type Key interface {
	comparable
	Hash() uint64
}

// Usage is a snapshot of a cache's accounting and counters.
type Usage struct {
	// Entries is the number of entries held.
	Entries int
	// Bytes is the summed cost of held entries; never exceeds Budget
	// when a budget is set.
	Bytes int64
	// Budget is the byte cap (0 = unbounded).
	Budget int64
	// Hits counts Gets that found their key; Misses counts Adds, each
	// the build after a Get that did not.
	Hits, Misses uint64
	// Evictions counts entries dropped to stay within the budget, and
	// spills.
	Evictions uint64
	// SecondChoice counts entries placed in their second-choice shard
	// because the first held more bytes.
	SecondChoice uint64
	// Spills counts entries served without retention because they cost
	// more than a shard's budget slice.
	Spills uint64
	// DenseEvictions counts evicted entries costing at least
	// denseEntryBytes: churn there means dense-pitch LUTs fight for
	// residency and the budget likely needs raising.
	DenseEvictions uint64
}

// denseEntryBytes is the cost from which an evicted entry counts in
// Usage.DenseEvictions. Full-floor LUTs at the default 10 cm pitch stay
// well under it, 2 cm-class ones (~19 MB per AP on the reference floor)
// far over it.
const denseEntryBytes = 4 << 20

type entry[K Key, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// shard is one independently locked segment: a map for lookup and an
// intrusive recency list (head = most recent, tail = next victim).
type shard[K Key, V any] struct {
	mu         sync.Mutex
	entries    map[K]*entry[K, V]
	head, tail *entry[K, V]
	bytes      int64
}

func (sh *shard[K, V]) unlink(e *entry[K, V]) {
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

func (sh *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard[K, V]) moveFront(e *entry[K, V]) {
	if sh.head != e {
		sh.unlink(e)
		sh.pushFront(e)
	}
}

// Cache maps keys to values under a byte budget. Safe for concurrent
// use; a lookup locks only its key's candidate shards.
type Cache[K Key, V any] struct {
	budget         atomic.Int64 // 0 means unbounded; resized by SetBudget
	shards         []shard[K, V]
	mask           uint64 // len(shards) - 1, a power of two minus one
	hits           atomic.Uint64
	misses         atomic.Uint64
	evictions      atomic.Uint64
	secondChoice   atomic.Uint64
	spills         atomic.Uint64
	denseEvictions atomic.Uint64
}

// New returns an empty cache of the given number of shards, rounded up
// to a power of two so placement masks instead of dividing, holding at
// most budget bytes (≤ 0 = unbounded). One shard is a single mutex with
// the whole budget.
func New[K Key, V any](shards int, budget int64) *Cache[K, V] {
	n := 1 << bits.Len(uint(max(shards, 1)-1))
	c := &Cache[K, V]{shards: make([]shard[K, V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].entries = make(map[K]*entry[K, V])
	}
	c.budget.Store(max(budget, 0))
	return c
}

// Budget returns the live byte cap (0 = unbounded).
func (c *Cache[K, V]) Budget() int64 { return c.budget.Load() }

// SetBudget hot-reloads the byte cap (≤ 0 = unbounded). Shrinking
// evicts least-recently-used entries shard by shard inside each
// shard's critical section, so the size fits the new budget before
// SetBudget returns and never exceeds it afterwards.
func (c *Cache[K, V]) SetBudget(budget int64) {
	c.budget.Store(max(budget, 0))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.evictOverLocked(sh)
		sh.mu.Unlock()
	}
}

// shardLimit is one shard's slice of the budget. A positive budget below
// the shard count leaves a slice of 0, which retains nothing: only a zero
// budget is unbounded.
func (c *Cache[K, V]) shardLimit() int64 {
	b := c.budget.Load()
	if b == 0 {
		return math.MaxInt64
	}
	return b / int64(len(c.shards))
}

// Fits reports whether an entry of this cost would be retained rather
// than spilled under the live budget.
func (c *Cache[K, V]) Fits(cost int64) bool { return cost <= c.shardLimit() }

// Candidates returns the key's two candidate shard indices, first
// choice first: the hash picks the first, a splitmix-style remix of it
// the second, bumped to the next shard when both land together. With one
// shard both are 0.
func (c *Cache[K, V]) Candidates(k K) (first, second int) {
	h := k.Hash()
	i1 := h & c.mask
	h2 := h ^ h>>33
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 33
	i2 := h2 & c.mask
	if i2 == i1 {
		i2 = (i1 + 1) & c.mask
	}
	return int(i1), int(i2)
}

// Get returns the value held under k, freshening its recency and
// counting a hit, or false.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	i1, i2 := c.Candidates(k)
	for _, i := range [2]int{i1, i2} {
		sh := &c.shards[i]
		sh.mu.Lock()
		if e := sh.entries[k]; e != nil {
			sh.moveFront(e)
			sh.mu.Unlock()
			c.hits.Add(1)
			return e.val, true
		}
		sh.mu.Unlock()
		if i1 == i2 {
			break
		}
	}
	var zero V
	return zero, false
}

// Add offers v, built after Get missed k, at cost bytes, counts the
// miss, and returns the value callers should use: the resident one when
// a concurrent caller added k first (so concurrent first lookups
// converge on one value), else v. An entry costing more than a shard's
// slice is served unretained and evicts nothing — inserting first would
// flush every innocent entry off the shard's tail before reaching it.
func (c *Cache[K, V]) Add(k K, v V, cost int64) V {
	c.misses.Add(1)
	i1, i2 := c.Candidates(k)
	first, second := &c.shards[i1], &c.shards[i2]
	// Locked in ascending index order, so two Adds never deadlock.
	lo, hi := &c.shards[min(i1, i2)], &c.shards[max(i1, i2)]
	lo.mu.Lock()
	defer lo.mu.Unlock()
	if hi != lo {
		hi.mu.Lock()
		defer hi.mu.Unlock()
	}
	for _, sh := range [2]*shard[K, V]{first, second} {
		if e := sh.entries[k]; e != nil {
			sh.moveFront(e)
			return e.val
		}
	}
	if !c.Fits(cost) {
		c.evictions.Add(1)
		c.spills.Add(1)
		return v
	}
	target := first
	if second.bytes < first.bytes {
		target = second
		c.secondChoice.Add(1)
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	target.entries[k] = e
	target.pushFront(e)
	target.bytes += cost
	c.evictOverLocked(target)
	return v
}

// evictOverLocked drops least-recently-used entries until sh fits its
// slice. The caller holds sh.mu.
func (c *Cache[K, V]) evictOverLocked(sh *shard[K, V]) {
	limit := c.shardLimit()
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

// Usage returns the accounting snapshot. Each shard is read under its
// own lock; since every shard holds at most its slice, the summed Bytes
// never exceeds Budget.
func (c *Cache[K, V]) Usage() Usage {
	u := Usage{
		Budget:         c.budget.Load(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
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

// Audit walks every shard under its lock and returns the summed entry
// costs and the entry count — what Usage must report — or an error
// naming a shard whose recency list, map and byte count disagree.
func (c *Cache[K, V]) Audit() (bytes int64, entries int, err error) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var sum int64
		n := 0
		for e := sh.head; e != nil && err == nil; e = e.next {
			if sh.entries[e.key] != e {
				err = fmt.Errorf("lru: shard %d: list entry missing from the map", i)
			}
			sum += e.cost
			n++
		}
		if err == nil && (n != len(sh.entries) || sum != sh.bytes) {
			err = fmt.Errorf("lru: shard %d: list holds %d entries of %d bytes, map %d, accounted %d bytes",
				i, n, sum, len(sh.entries), sh.bytes)
		}
		sh.mu.Unlock()
		if err != nil {
			return 0, 0, err
		}
		bytes += sum
		entries += n
	}
	return bytes, entries, nil
}
