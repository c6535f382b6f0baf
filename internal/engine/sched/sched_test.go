package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPopPrefersPriority(t *testing.T) {
	q := New(Options{})
	for i := 0; i < 3; i++ {
		if err := q.Push(Item{Client: 1, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(Item{Client: 2, Priority: true, Payload: "prio"}); err != nil {
		t.Fatal(err)
	}
	it, ok := q.Pop()
	if !ok || it.Payload != "prio" {
		t.Fatalf("Pop = %+v, want the priority item first", it)
	}
	for i := 0; i < 3; i++ {
		it, ok := q.Pop()
		if !ok || it.Payload != i {
			t.Fatalf("batch pop %d = %+v, want FIFO order", i, it)
		}
	}
}

// TestAgeingPromotesBatchHead: with a continuously non-empty priority
// lane, a batch item older than AgeLimit is served anyway — the
// bounded-wait guarantee.
func TestAgeingPromotesBatchHead(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	q := New(Options{AgeLimit: 100 * time.Millisecond, Now: clock})
	if err := q.Push(Item{Client: 1, Payload: "batch"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := q.Push(Item{Client: 2, Priority: true, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Young batch head: priority first.
	it, _ := q.Pop()
	if it.Payload != 0 {
		t.Fatalf("young batch head must not jump priority, got %+v", it)
	}
	// Age the batch head past the limit: it is served next even though
	// priority items wait.
	now = now.Add(150 * time.Millisecond)
	it, _ = q.Pop()
	if it.Payload != "batch" {
		t.Fatalf("aged batch head not promoted, got %+v", it)
	}
	if s := q.Stats(); s.Aged != 1 {
		t.Fatalf("Aged = %d, want 1", s.Aged)
	}
	// Remaining priority items drain in order.
	for want := 1; want <= 3; want++ {
		it, _ = q.Pop()
		if it.Payload != want {
			t.Fatalf("priority drain got %+v, want %d", it, want)
		}
	}
}

// TestAgeingDisabled: negative AgeLimit restores strict
// priority-first ordering.
func TestAgeingDisabled(t *testing.T) {
	now := time.Unix(1000, 0)
	q := New(Options{AgeLimit: -1, Now: func() time.Time { return now }})
	q.Push(Item{Client: 1, Payload: "batch"})
	q.Push(Item{Client: 2, Priority: true, Payload: "prio"})
	now = now.Add(time.Hour)
	it, _ := q.Pop()
	if it.Payload != "prio" {
		t.Fatalf("ageing disabled but batch jumped: %+v", it)
	}
}

func TestClientQuotaSpansLanes(t *testing.T) {
	q := New(Options{ClientQuota: 2})
	if err := q.Push(Item{Client: 7}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Item{Client: 7, Priority: true}); err != nil {
		t.Fatal(err)
	}
	// Third admission for the same client, either lane: quota.
	if err := q.Push(Item{Client: 7}); err != ErrQuota {
		t.Fatalf("third batch push = %v, want ErrQuota", err)
	}
	if err := q.Push(Item{Client: 7, Priority: true}); err != ErrQuota {
		t.Fatalf("third priority push = %v, want ErrQuota", err)
	}
	// Other clients are unaffected.
	if err := q.Push(Item{Client: 8}); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	// Tokens are held across Pop and released by Done: the priority
	// item (client 7's) pops first.
	it, _ := q.Pop()
	if it.Client != 7 {
		t.Fatalf("popped client %d, want 7's priority item first", it.Client)
	}
	if err := q.Push(Item{Client: 7}); err != ErrQuota {
		t.Fatalf("popped-but-not-Done must still hold the token, got %v", err)
	}
	q.Done(7)
	if err := q.Push(Item{Client: 7}); err != nil {
		t.Fatalf("Done did not release the token: %v", err)
	}
	if s := q.Stats(); s.QuotaRejected != 3 {
		t.Fatalf("QuotaRejected = %d, want 3", s.QuotaRejected)
	}
}

// TestTryPrioritySteal: the lane depths Stats reports track every push
// and pop on both lanes — the read the engine's PriorityQueued and
// Queued gauges rest on.
func TestTryPrioritySteal(t *testing.T) {
	q := New(Options{AgeLimit: -1})
	depths := func(wantBatch, wantPrio int) {
		t.Helper()
		if s := q.Stats(); s.BatchQueued != wantBatch || s.PriorityQueued != wantPrio {
			t.Fatalf("depths batch=%d prio=%d, want %d and %d", s.BatchQueued, s.PriorityQueued, wantBatch, wantPrio)
		}
	}
	depths(0, 0)
	q.Push(Item{Client: 1, Payload: "batch"})
	depths(1, 0)
	q.Push(Item{Client: 2, Priority: true, Payload: "prio"})
	q.Push(Item{Client: 3, Priority: true, Payload: "prio"})
	depths(1, 2)
	for _, want := range []struct {
		batch, prio int
	}{{1, 1}, {1, 0}, {0, 0}} {
		if _, ok := q.Pop(); !ok {
			t.Fatal("Pop on a non-empty queue failed")
		}
		depths(want.batch, want.prio)
	}
	if s := q.Stats(); s.Pushed != 3 || s.PushedPriority != 2 {
		t.Fatalf("Pushed = %d (priority %d), want 3 (2)", s.Pushed, s.PushedPriority)
	}
}

func TestCloseDrains(t *testing.T) {
	q := New(Options{})
	q.Push(Item{Client: 1, Payload: 1})
	q.Push(Item{Client: 2, Priority: true, Payload: 2})
	q.Close()
	if err := q.Push(Item{Client: 3}); err != ErrClosed {
		t.Fatalf("Push after Close = %v", err)
	}
	seen := 0
	for {
		_, ok := q.Pop()
		if !ok {
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("drained %d items, want 2", seen)
	}
}

// TestBackpressureBlocksAndUnblocks: Push blocks on a full batch lane
// until a Pop frees a slot.
func TestBackpressureBlocksAndUnblocks(t *testing.T) {
	q := New(Options{BatchDepth: 1})
	q.Push(Item{Client: 1, Payload: 0})
	released := make(chan struct{})
	go func() {
		q.Push(Item{Client: 1, Payload: 1})
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("Push returned with a full lane")
	case <-time.After(20 * time.Millisecond):
	}
	if it, _ := q.Pop(); it.Payload != 0 {
		t.Fatal("FIFO order broken")
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Push never unblocked after Pop")
	}
}

// TestConcurrentChurn hammers the queue from many producers and
// consumers under -race: every admitted item is popped exactly once,
// tokens drain to zero.
func TestConcurrentChurn(t *testing.T) {
	q := New(Options{BatchDepth: 32, PriorityDepth: 8, ClientQuota: 4})
	const producers = 8
	const perProducer = 200
	var admitted, popped, rejected atomic.Int64

	var consumers sync.WaitGroup
	for c := 0; c < 4; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				it, ok := q.Pop()
				if !ok {
					return
				}
				popped.Add(1)
				q.Done(it.Client)
			}
		}()
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				err := q.Push(Item{Client: uint32(p % 3), Priority: i%5 == 0})
				switch err {
				case nil:
					admitted.Add(1)
				case ErrQuota:
					rejected.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	consumers.Wait()
	if admitted.Load() != popped.Load() {
		t.Fatalf("admitted %d != popped %d", admitted.Load(), popped.Load())
	}
	if s := q.Stats(); s.Clients != 0 || s.BatchQueued != 0 || s.PriorityQueued != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
	t.Logf("admitted %d, quota-rejected %d", admitted.Load(), rejected.Load())
}

// TestNoStarvationUnderPriorityFlood is the scheduler-level fairness
// property: with a hostile client keeping the priority lane non-empty
// for the whole run, two well-behaved batch clients still complete
// every job, each within the ageing bound of its turn.
func TestNoStarvationUnderPriorityFlood(t *testing.T) {
	const ageLimit = 20 * time.Millisecond
	q := New(Options{AgeLimit: ageLimit, PriorityDepth: 64, ClientQuota: 8})

	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() { // hostile client 99: refill the lane forever
		defer flood.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := q.Push(Item{Client: 99, Priority: true}); err != nil {
				if err == ErrQuota {
					time.Sleep(time.Millisecond)
					continue
				}
				return
			}
		}
	}()

	type batchDone struct {
		client uint32
		wait   time.Duration
	}
	results := make(chan batchDone, 8)
	var consumers sync.WaitGroup
	consumers.Add(1)
	go func() { // one worker: jobs take ~1ms each
		defer consumers.Done()
		for {
			it, ok := q.Pop()
			if !ok {
				return
			}
			time.Sleep(time.Millisecond)
			q.Done(it.Client)
			if !it.Priority {
				start := it.Payload.(time.Time)
				results <- batchDone{it.Client, time.Since(start)}
			}
		}
	}()

	// Two well-behaved batch clients, four jobs each.
	for i := 0; i < 4; i++ {
		for _, c := range []uint32{1, 2} {
			if err := q.Push(Item{Client: c, Payload: time.Now()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waits := map[uint32]int{}
	deadline := time.After(10 * time.Second)
	for n := 0; n < 8; n++ {
		select {
		case r := <-results:
			waits[r.client]++
			// Bounded wait: each job is behind at most 7 other batch
			// jobs, each of which must age out (≤ ageLimit) and run
			// (~1ms) with priority jobs (~1ms each) interleaved.
			// 8×(ageLimit+10ms) is a loose, non-flaky ceiling; without
			// ageing the wait would be unbounded (the flood never stops).
			if limit := 8 * (ageLimit + 10*time.Millisecond); r.wait > limit {
				t.Errorf("client %d batch job waited %v, want < %v", r.client, r.wait, limit)
			}
		case <-deadline:
			t.Fatalf("starved: only %d/8 batch jobs completed under priority flood", n)
		}
	}
	if waits[1] != 4 || waits[2] != 4 {
		t.Fatalf("per-client completions %v, want 4 each", waits)
	}
	close(stop)
	flood.Wait()
	q.Close()
	consumers.Wait()
	if s := q.Stats(); s.Aged == 0 {
		t.Fatal("ageing never promoted a batch job during the flood")
	}
}
