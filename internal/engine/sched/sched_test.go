package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientQuotaSpansLanes: a client holds a token from Push until
// Done, popped or not; other clients are unaffected.
func TestClientQuotaSpansLanes(t *testing.T) {
	q := New(Options{ClientQuota: 2})
	for i := 0; i < 2; i++ {
		if err := q.Push(Item{Client: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(Item{Client: 7}); err != ErrQuota {
		t.Fatalf("third push = %v, want ErrQuota", err)
	}
	// Other clients are unaffected.
	if err := q.Push(Item{Client: 8}); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	// Tokens are held across Pop and released by Done.
	it, _ := q.Pop()
	if it.Client != 7 {
		t.Fatalf("popped client %d, want 7's first item", it.Client)
	}
	if err := q.Push(Item{Client: 7}); err != ErrQuota {
		t.Fatalf("popped-but-not-Done must still hold the token, got %v", err)
	}
	q.Done(7)
	if err := q.Push(Item{Client: 7}); err != nil {
		t.Fatalf("Done did not release the token: %v", err)
	}
	if s := q.Stats(); s.QuotaRejected != 2 {
		t.Fatalf("QuotaRejected = %d, want 2", s.QuotaRejected)
	}
}

// TestTryPrioritySteal: the queue's depth tracks every push and pop,
// Pushed counts every admission, and pops come out in FIFO order — the
// reads the engine's Queued gauge and submission counters rest on.
func TestTryPrioritySteal(t *testing.T) {
	q := New(Options{})
	depth := func(want int) {
		t.Helper()
		if s := q.Stats(); s.Queued != want {
			t.Fatalf("depth %d, want %d", s.Queued, want)
		}
	}
	depth(0)
	for i := 0; i < 3; i++ {
		q.Push(Item{Client: uint32(i + 1), Payload: i})
		depth(i + 1)
	}
	for i := 0; i < 3; i++ {
		it, ok := q.Pop()
		if !ok || it.Payload != i {
			t.Fatalf("pop %d = %+v, want FIFO order", i, it)
		}
		depth(2 - i)
	}
	if s := q.Stats(); s.Pushed != 3 {
		t.Fatalf("Pushed = %d, want 3", s.Pushed)
	}
}

func TestCloseDrains(t *testing.T) {
	q := New(Options{})
	q.Push(Item{Client: 1, Payload: 1})
	q.Push(Item{Client: 2, Payload: 2})
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

// TestBackpressureBlocksAndUnblocks: Push blocks on a full queue until
// a Pop frees a slot.
func TestBackpressureBlocksAndUnblocks(t *testing.T) {
	q := New(Options{Depth: 1})
	q.Push(Item{Client: 1, Payload: 0})
	released := make(chan struct{})
	go func() {
		q.Push(Item{Client: 1, Payload: 1})
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("Push returned with a full queue")
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
	q := New(Options{Depth: 32, ClientQuota: 4})
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
				err := q.Push(Item{Client: uint32(p % 3)})
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
	if s := q.Stats(); s.Clients != 0 || s.Queued != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
	t.Logf("admitted %d, quota-rejected %d", admitted.Load(), rejected.Load())
}

// TestNoStarvationUnderPriorityFlood is the scheduler-level fairness
// property: with a hostile client refilling its quota for the whole
// run, two well-behaved clients still complete every job, and the
// flood never holds more than its quota of the queue.
func TestNoStarvationUnderPriorityFlood(t *testing.T) {
	const quota = 8
	q := New(Options{Depth: 64, ClientQuota: quota})

	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() { // hostile client 99: refill its quota forever
		defer flood.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := q.Push(Item{Client: 99}); err != nil {
				if err == ErrQuota {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				return
			}
		}
	}()

	results := make(chan uint32, 8)
	var consumers sync.WaitGroup
	consumers.Add(1)
	go func() { // one worker: jobs take ~1ms each
		defer consumers.Done()
		for {
			it, ok := q.Pop()
			if !ok {
				return
			}
			if n := q.InFlight(99); n > quota {
				t.Errorf("hostile client holds %d tokens, quota is %d", n, quota)
			}
			time.Sleep(time.Millisecond)
			q.Done(it.Client)
			if it.Client != 99 {
				results <- it.Client
			}
		}
	}()

	// Two well-behaved clients, four jobs each.
	for i := 0; i < 4; i++ {
		for _, c := range []uint32{1, 2} {
			if err := q.Push(Item{Client: c}); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := map[uint32]int{}
	deadline := time.After(10 * time.Second)
	for n := 0; n < 8; n++ {
		select {
		case c := <-results:
			done[c]++
		case <-deadline:
			t.Fatalf("starved: only %d/8 jobs completed under the flood", n)
		}
	}
	if done[1] != 4 || done[2] != 4 {
		t.Fatalf("per-client completions %v, want 4 each", done)
	}
	close(stop)
	flood.Wait()
	q.Close()
	consumers.Wait()
	if s := q.Stats(); s.QuotaRejected == 0 {
		t.Fatal("the flood never hit its quota")
	}
}
