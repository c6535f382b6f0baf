// Package sched is the engine's scheduler subsystem: the admission
// and ordering policy for localization jobs. It is one bounded FIFO
// with per-client token quotas — one client (or a compromised AP feed)
// can hold at most ClientQuota jobs admitted but not yet completed, so
// a flood from one identity cannot crowd every other client out of the
// queue.
//
// The queue is deliberately payload-agnostic (Payload any): ordering
// policy lives here, localization lives in the engine.
package sched

import (
	"errors"
	"sync"
)

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("sched: queue closed")

// ErrQuota is returned by Push when the client already holds its full
// quota of admitted-but-uncompleted jobs.
var ErrQuota = errors.New("sched: client quota exceeded")

// Item is one scheduled unit of work.
type Item struct {
	// Client is the quota identity the item is accounted against.
	Client uint32
	// Payload is the caller's job; the queue never inspects it.
	Payload any
}

// Options configures a Queue. The zero value is usable: a 64-deep
// queue and unbounded quotas.
type Options struct {
	// Depth is the queue's capacity; Push blocks while the queue
	// is full (backpressure). 0 means 64.
	Depth int
	// ClientQuota is the per-client token budget: a client may hold at
	// most this many jobs admitted but not yet released with Done. 0
	// means unlimited (closed deployments).
	ClientQuota int
}

// Queue is the scheduler. All methods are safe for concurrent use.
type Queue struct {
	opt Options

	mu       sync.Mutex
	notEmpty *sync.Cond // poppers wait here
	space    *sync.Cond // pushers blocked on a full queue wait here
	items    []Item     // FIFO from head; the backing array is reused
	head     int
	tokens   map[uint32]int // admitted-but-not-Done count per client
	closed   bool
}

// New returns a queue with the given options.
func New(opt Options) *Queue {
	if opt.Depth <= 0 {
		opt.Depth = 64
	}
	q := &Queue{opt: opt, tokens: make(map[uint32]int)}
	q.notEmpty = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

func (q *Queue) len() int { return len(q.items) - q.head }

// Push admits an item, blocking while the queue is full. It returns
// ErrClosed after Close and ErrQuota when the client's token budget
// is exhausted (the caller decides whether that fails the job or
// retries later; the queue never blocks on quota, or a hostile client
// could park goroutines forever).
func (q *Queue) Push(it Item) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return ErrClosed
		}
		if quota := q.opt.ClientQuota; quota > 0 && q.tokens[it.Client] >= quota {
			return ErrQuota
		}
		if q.len() < q.opt.Depth {
			break
		}
		q.space.Wait()
	}
	q.tokens[it.Client]++
	q.items = append(q.items, it)
	q.notEmpty.Signal()
	return nil
}

// Pop dequeues the oldest item, blocking while the queue is empty.
// After Close it drains what remains, then reports false.
func (q *Queue) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.len() == 0 {
		if q.closed {
			return Item{}, false
		}
		q.notEmpty.Wait()
	}
	it := q.items[q.head]
	q.items[q.head] = Item{} // release the payload reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 256 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.space.Broadcast()
	return it, true
}

// SetClientQuota hot-reloads the per-client token budget (0 =
// unlimited). A lowered quota never cancels admitted jobs: clients over
// the new budget simply cannot push again until enough of their jobs
// complete. Pushers blocked on a full queue re-check against the new
// value when they wake.
func (q *Queue) SetClientQuota(n int) {
	if n < 0 {
		n = 0
	}
	q.mu.Lock()
	q.opt.ClientQuota = n
	q.mu.Unlock()
}

// ClientQuota returns the live per-client token budget (0 =
// unlimited).
func (q *Queue) ClientQuota() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.opt.ClientQuota
}

// InFlight returns one client's admitted-but-not-completed job count
// — tokens held since Push and not yet returned with Done. A cluster
// migration uses it to wait until a moving client's jobs have fully
// folded into the tracker before snapshotting its state.
func (q *Queue) InFlight(client uint32) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tokens[client]
}

// Done returns a client's token, releasing quota held since Push.
// Call it exactly once per popped item, after the job
// completes.
func (q *Queue) Done(client uint32) {
	q.mu.Lock()
	if n := q.tokens[client]; n > 1 {
		q.tokens[client] = n - 1
	} else {
		delete(q.tokens, client)
	}
	q.mu.Unlock()
}

// Close stops admissions and wakes every waiter. Items already queued
// remain poppable (drain), after which Pop reports false.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.space.Broadcast()
}

// Len returns the instantaneous queue depth: items pushed and not yet
// popped.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.len()
}
