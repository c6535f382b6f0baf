// Package lru is the size-accounted least-recently-used cache under the
// server's memos (music.SteeringCache, core.SynthCache):
//
//   - byte accounting: every entry carries the cost its owner charged
//     at Add, and Usage's Bytes is the exact sum of held costs;
//   - a hard budget: one pool holds at most budget bytes, evicting
//     least-recently-used entries inside the insert's critical section,
//     so the visible size never exceeds the budget. Any set of entries
//     whose costs sum to at most the budget stays resident whatever
//     their keys. An entry larger than the whole budget is served
//     without being retained and without evicting anything (a spill).
//
// Eviction only drops memoization: values are immutable once added,
// callers keep what Get and Add returned, and a rebuild after eviction
// is the caller's, under the same key.
package lru

import (
	"errors"
	"fmt"
	"sync"
)

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
	// Spills counts entries served without retention because they cost
	// more than the budget.
	Spills uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// Cache maps keys to values under a byte budget: one mutex guarding a
// map for lookup and an intrusive recency list (head = most recent,
// tail = next victim). Safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu         sync.Mutex
	entries    map[K]*entry[K, V]
	head, tail *entry[K, V]
	bytes      int64
	budget     int64 // 0 means unbounded; resized by SetBudget

	hits, misses, evictions, spills uint64
}

// New returns an empty cache holding at most budget bytes (≤ 0 =
// unbounded).
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{entries: make(map[K]*entry[K, V]), budget: max(budget, 0)}
}

// Budget returns the live byte cap (0 = unbounded).
func (c *Cache[K, V]) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// SetBudget hot-reloads the byte cap (≤ 0 = unbounded). Shrinking
// evicts least-recently-used entries inside the critical section, so
// the size fits the new budget before SetBudget returns and never
// exceeds it afterwards.
func (c *Cache[K, V]) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = max(budget, 0)
	c.evictOverLocked()
}

// Get returns the value held under k, freshening its recency and
// counting a hit, or false.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		var zero V
		return zero, false
	}
	c.moveFront(e)
	c.hits++
	return e.val, true
}

// Add offers v, built after Get missed k, at cost bytes, counts the
// miss, and returns the value callers should use: the resident one when
// a concurrent caller added k first (so concurrent first lookups
// converge on one value), else v. An entry costing more than the budget
// is served unretained and evicts nothing — inserting first would flush
// every innocent entry off the tail before reaching it.
func (c *Cache[K, V]) Add(k K, v V, cost int64) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if e := c.entries[k]; e != nil {
		c.moveFront(e)
		return e.val
	}
	if c.budget > 0 && cost > c.budget {
		c.evictions++
		c.spills++
		return v
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	c.entries[k] = e
	c.pushFront(e)
	c.bytes += cost
	c.evictOverLocked()
	return v
}

// evictOverLocked drops least-recently-used entries until the cache fits
// its budget. The caller holds c.mu.
func (c *Cache[K, V]) evictOverLocked() {
	for c.budget > 0 && c.bytes > c.budget && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.bytes -= victim.cost
		c.evictions++
	}
}

// Usage returns the accounting snapshot.
func (c *Cache[K, V]) Usage() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Usage{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Spills:    c.spills,
	}
}

// Audit walks the recency list under the lock and returns the summed
// entry costs and the entry count — what Usage must report — or an
// error when the list, the map and the byte count disagree.
func (c *Cache[K, V]) Audit() (bytes int64, entries int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.head; e != nil; e = e.next {
		if c.entries[e.key] != e {
			return 0, 0, errors.New("lru: list entry missing from the map")
		}
		bytes += e.cost
		entries++
	}
	if entries != len(c.entries) || bytes != c.bytes {
		return 0, 0, fmt.Errorf("lru: list holds %d entries of %d bytes, map %d, accounted %d bytes",
			entries, bytes, len(c.entries), c.bytes)
	}
	return bytes, entries, nil
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
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

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) moveFront(e *entry[K, V]) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}
