package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

type key uint32

// val is the one value every caller builds for k, so any value a Get or
// Add returns can be checked.
func val(k key) int { return 3*int(k) + 1 }

// residents returns every held key. No caller may be mid-operation.
func residents(c *Cache[key, int]) map[key]bool {
	held := map[key]bool{}
	for k := range c.entries {
		held[k] = true
	}
	return held
}

// checkQuiescent asserts the accounting invariants with no caller
// mid-operation: Σ entry costs == Bytes, the recency list agrees with
// the map, and Bytes ≤ Budget.
func checkQuiescent(t *testing.T, c *Cache[key, int]) {
	t.Helper()
	bytes, entries, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	u := c.Usage()
	if u.Bytes != bytes || u.Entries != entries {
		t.Fatalf("Usage reports %d entries of %d bytes, the list holds %d of %d", u.Entries, u.Bytes, entries, bytes)
	}
	if u.Budget > 0 && u.Bytes > u.Budget {
		t.Fatalf("%d bytes held over the %d budget", u.Bytes, u.Budget)
	}
}

// TestPositiveBudgetNeverUnbounded: a positive budget never retains an
// entry costing more than it, however small the budget; an entry costing
// exactly the budget is retained, and only a zero budget is unbounded.
func TestPositiveBudgetNeverUnbounded(t *testing.T) {
	for budget := int64(1); budget < 8; budget++ {
		c := New[key, int](budget)
		if got := c.Add(1, val(1), budget+1); got != val(1) {
			t.Fatalf("budget %d: Add served %d, want %d", budget, got, val(1))
		}
		if u := c.Usage(); u.Entries != 0 || u.Bytes != 0 || u.Spills != 1 {
			t.Fatalf("budget %d: usage %+v, want the entry spilled", budget, u)
		}
		c.Add(2, val(2), budget)
		if u := c.Usage(); u.Entries != 1 || u.Bytes != budget || u.Spills != 1 {
			t.Fatalf("budget %d: usage %+v, want the entry costing the budget held", budget, u)
		}
	}
	c := New[key, int](0)
	c.Add(1, val(1), 5)
	if u := c.Usage(); u.Entries != 1 {
		t.Fatalf("the unbounded cache did not retain the entry: %+v", u)
	}
	c.SetBudget(4)
	if u := c.Usage(); u.Entries != 0 || u.Bytes != 0 {
		t.Fatalf("SetBudget(4) kept %+v", u)
	}
}

// TestSinglePoolRetainsAnyFittingSet: entries under arbitrary keys whose
// costs sum to at most the budget all stay resident, whatever their keys
// and however the budget splits among them — one costs well over an
// eighth of it — so repeated rounds over them hit every time and evict
// nothing.
func TestSinglePoolRetainsAnyFittingSet(t *testing.T) {
	const budget = 1 << 20
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		c := New[key, int](budget)
		// One entry between budget/8 and budget/2, the rest random costs
		// filling what is left.
		big := budget/8 + 1 + rng.Int63n(3*budget/8)
		costs := map[key]int64{key(rng.Uint32()): big}
		for left := budget - big; left > 0; {
			cost := min(left, 1+rng.Int63n(budget/4))
			costs[key(rng.Uint32())] += cost
			left -= cost
		}
		keys := make([]key, 0, len(costs))
		for k, cost := range costs {
			keys = append(keys, k)
			if v := c.Add(k, val(k), cost); v != val(k) {
				t.Fatalf("trial %d: Add(%d) = %d", trial, k, v)
			}
		}
		for round := 0; round < 5; round++ {
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				if v, ok := c.Get(k); !ok || v != val(k) {
					t.Fatalf("trial %d round %d: key %d (cost %d of %d) not resident", trial, round, k, costs[k], budget)
				}
			}
		}
		if u := c.Usage(); u.Entries != len(keys) || u.Bytes != budget || u.Evictions != 0 || u.Spills != 0 {
			t.Fatalf("trial %d: usage %+v, want all %d entries held, nothing evicted", trial, u, len(keys))
		}
		checkQuiescent(t, c)
	}
}

// TestSetBudgetShrinkKeepsMostRecent: shrinking evicts in recency order,
// so the survivors are exactly the most recently used entries.
func TestSetBudgetShrinkKeepsMostRecent(t *testing.T) {
	c := New[key, int](0)
	for k := key(0); k < 10; k++ {
		c.Add(k, val(k), 10)
	}
	for _, k := range []key{2, 5, 7} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing from the unbounded cache", k)
		}
	}
	c.Add(11, val(11), 10) // most recent of all
	c.SetBudget(40)
	want := map[key]bool{11: true, 7: true, 5: true, 2: true}
	if got := residents(c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("survivors %v, want the four most recently used %v", got, want)
	}
	if u := c.Usage(); u.Evictions != 7 {
		t.Fatalf("Evictions = %d, want 7", u.Evictions)
	}
	checkQuiescent(t, c)
}

// TestBudgetInvariantUnderConcurrentResize tries to break the budget
// invariant: 8 goroutines interleave random Gets, Adds whose costs
// straddle the budget, and SetBudgets that shrink, grow and toggle
// between bounded and unbounded. Between rounds the accounting must be
// exact and within the budget, and a spill must leave every resident
// in place.
func TestBudgetInvariantUnderConcurrentResize(t *testing.T) {
	// The cache is one pool, so the one-shard case is the only one left.
	t.Run("shards-1", func(t *testing.T) {
		budgets := []int64{0, 3, 64, 512, 4096, 1 << 16}
		c := New[key, int](512)
		rng := rand.New(rand.NewSource(27))
		for round := 0; round < 30; round++ {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for op := 0; op < 400; op++ {
						k := key(rng.Intn(200))
						switch p := rng.Intn(100); {
						case p < 3:
							c.SetBudget(budgets[rng.Intn(len(budgets))])
						case p < 55:
							if v, ok := c.Get(k); ok && v != val(k) {
								t.Errorf("Get(%d) = %d, want %d", k, v, val(k))
								return
							}
						default:
							limit := c.Budget()
							if limit == 0 {
								limit = 512
							}
							if v := c.Add(k, val(k), 1+rng.Int63n(2*limit)); v != val(k) {
								t.Errorf("Add(%d) = %d, want %d", k, v, val(k))
								return
							}
						}
					}
				}(rng.Int63())
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checkQuiescent(t, c)

			if c.Budget() > 0 {
				before, u0 := residents(c), c.Usage()
				outsider := key(1000 + round)
				if v := c.Add(outsider, val(outsider), c.Budget()+1); v != val(outsider) {
					t.Fatalf("round %d: spill served %d", round, v)
				}
				after, u1 := residents(c), c.Usage()
				if fmt.Sprint(after) != fmt.Sprint(before) || u1.Bytes != u0.Bytes || u1.Spills != u0.Spills+1 {
					t.Fatalf("round %d: a spill changed the residents (%d → %d entries, %d → %d bytes)",
						round, u0.Entries, u1.Entries, u0.Bytes, u1.Bytes)
				}
			}
		}
		if u := c.Usage(); u.Evictions == 0 || u.Spills == 0 || u.Hits == 0 {
			t.Fatalf("the run did not exercise the cache: %+v", u)
		}
	})
}
