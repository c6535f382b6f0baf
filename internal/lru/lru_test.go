package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

type key uint32

func (k key) Hash() uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// val is the one value every caller builds for k, so any value a Get or
// Add returns can be checked.
func val(k key) int { return 3*int(k) + 1 }

// residents returns every held key. No caller may be mid-operation.
func residents(c *Cache[key, int]) map[key]bool {
	held := map[key]bool{}
	for i := range c.shards {
		for k := range c.shards[i].entries {
			held[k] = true
		}
	}
	return held
}

// checkQuiescent asserts the accounting invariants with no caller
// mid-operation: Σ entry costs == Bytes, each shard's list agrees with
// its map, every shard within its slice, and so Bytes ≤ Budget.
func checkQuiescent(t *testing.T, c *Cache[key, int]) {
	t.Helper()
	bytes, entries, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	u := c.Usage()
	if u.Bytes != bytes || u.Entries != entries {
		t.Fatalf("Usage reports %d entries of %d bytes, the shards hold %d of %d", u.Entries, u.Bytes, entries, bytes)
	}
	for i := range c.shards {
		if sh := &c.shards[i]; sh.bytes > c.shardLimit() {
			t.Fatalf("shard %d holds %d bytes over its %d slice", i, sh.bytes, c.shardLimit())
		}
	}
	if u.Budget > 0 && u.Bytes > u.Budget {
		t.Fatalf("%d bytes held over the %d budget", u.Bytes, u.Budget)
	}
}

// TestPositiveBudgetNeverUnbounded: a budget of 1 byte up to one below
// the shard count leaves each shard a zero slice. That retains nothing;
// it must not read as the unbounded 0.
func TestPositiveBudgetNeverUnbounded(t *testing.T) {
	for budget := int64(1); budget < 8; budget++ {
		c := New[key, int](8, budget)
		if got := c.Add(1, val(1), 5); got != val(1) {
			t.Fatalf("budget %d: Add served %d, want %d", budget, got, val(1))
		}
		if u := c.Usage(); u.Entries != 0 || u.Bytes != 0 || u.Spills != 1 {
			t.Fatalf("budget %d: usage %+v, want the entry spilled", budget, u)
		}
	}
	c := New[key, int](8, 0)
	c.Add(1, val(1), 5)
	c.SetBudget(7)
	if u := c.Usage(); u.Entries != 0 || u.Bytes != 0 {
		t.Fatalf("SetBudget(7) kept %+v", u)
	}
}

// TestSetBudgetShrinkKeepsMostRecent: shrinking evicts in recency order,
// so the survivors are exactly the most recently used entries.
func TestSetBudgetShrinkKeepsMostRecent(t *testing.T) {
	c := New[key, int](1, 0)
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
// straddle the shard slice, and SetBudgets that shrink, grow and toggle
// between bounded and unbounded. Between rounds the accounting must be
// exact and within the budget, and a spill must leave every resident
// in place.
func TestBudgetInvariantUnderConcurrentResize(t *testing.T) {
	budgets := []int64{0, 3, 64, 512, 4096, 1 << 16}
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			c := New[key, int](shards, 512)
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
								slice := c.Budget() / int64(shards)
								if slice == 0 {
									slice = 64
								}
								if v := c.Add(k, val(k), 1+rng.Int63n(2*slice)); v != val(k) {
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

				if !c.Fits(c.Budget() + 1) {
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
			u := c.Usage()
			if u.Evictions == 0 || u.Spills == 0 || u.Hits == 0 || (shards > 1 && u.SecondChoice == 0) {
				t.Fatalf("the run did not exercise the cache: %+v", u)
			}
		})
	}
}
