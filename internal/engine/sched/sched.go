// Package sched is the engine's scheduler subsystem: the admission
// and ordering policy for localization jobs, extracted from the
// engine's original two-channel hack into a real queue with two
// properties the open-network deployment needs:
//
//   - per-client token quotas spanning both lanes — one client (or a
//     compromised AP feed) can hold at most ClientQuota jobs admitted
//     but not yet completed, batch and priority combined, so a flood
//     from one identity cannot crowd every other client out of the
//     queue;
//   - queue ageing — workers prefer the latency lane, but a batch job
//     whose head-of-line wait exceeds AgeLimit is served ahead of
//     waiting priority traffic, so a sustained priority flood delays
//     batch work by a bounded amount instead of starving it.
//
// The queue is deliberately payload-agnostic (Payload any): ordering
// policy lives here, localization lives in the engine.
package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("sched: queue closed")

// ErrQuota is returned by Push when the client already holds its full
// quota of admitted-but-uncompleted jobs.
var ErrQuota = errors.New("sched: client quota exceeded")

// DefaultAgeLimit bounds how long a batch job can wait behind the
// latency lane before it is served anyway. A fix costs ≈ 0.1–0.5 ms of
// CPU, so the limit is 400–2,000 fixes' worth: the lane stays
// responsive to a burst of interactive fixes, and batch progress is
// still guaranteed under a sustained priority flood.
const DefaultAgeLimit = 200 * time.Millisecond

// Item is one scheduled unit of work.
type Item struct {
	// Client is the quota identity the item is accounted against.
	Client uint32
	// Priority selects the latency lane.
	Priority bool
	// Payload is the caller's job; the queue never inspects it.
	Payload any
	// enqueued is stamped by Push and drives ageing.
	enqueued time.Time
}

// Options configures a Queue. The zero value is usable: unbounded
// quotas, DefaultAgeLimit ageing, wall-clock time.
type Options struct {
	// BatchDepth is the batch lane's capacity; Push blocks while the
	// lane is full (backpressure). 0 means 64.
	BatchDepth int
	// PriorityDepth is the latency lane's capacity; 0 means 16. Kept
	// shallow by callers: the lane exists for single interactive
	// fixes.
	PriorityDepth int
	// ClientQuota is the per-client token budget across both lanes: a
	// client may hold at most this many jobs admitted but not yet
	// released with Done. 0 means unlimited (closed deployments).
	ClientQuota int
	// AgeLimit is the head-of-line wait beyond which a batch job is
	// served ahead of queued priority traffic. 0 means
	// DefaultAgeLimit; negative disables ageing (strict priority).
	AgeLimit time.Duration
	// Now overrides the clock, for tests. nil means time.Now.
	Now func() time.Time
}

// Stats is a snapshot of queue counters.
type Stats struct {
	// Pushed and PushedPriority count admissions (priority included in
	// Pushed).
	Pushed, PushedPriority uint64
	// Aged counts batch jobs served ahead of waiting priority traffic
	// because their head-of-line wait exceeded AgeLimit.
	Aged uint64
	// QuotaRejected counts pushes refused with ErrQuota.
	QuotaRejected uint64
	// BatchQueued and PriorityQueued are instantaneous lane depths.
	BatchQueued, PriorityQueued int
	// Clients is the number of identities currently holding tokens.
	Clients int
}

// fifo is a slice-backed FIFO that reuses its backing array.
type fifo struct {
	items []Item
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) push(it Item) { f.items = append(f.items, it) }

func (f *fifo) peek() *Item { return &f.items[f.head] }

func (f *fifo) pop() Item {
	it := f.items[f.head]
	f.items[f.head] = Item{} // release the payload reference
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head > 256 && f.head*2 > len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return it
}

// Queue is the two-lane scheduler. All methods are safe for
// concurrent use.
type Queue struct {
	opt Options

	mu       sync.Mutex
	notEmpty *sync.Cond // poppers wait here
	space    *sync.Cond // pushers blocked on a full lane wait here
	batch    fifo
	prio     fifo
	tokens   map[uint32]int // admitted-but-not-Done count per client
	closed   bool

	pushed     atomic.Uint64
	pushedPrio atomic.Uint64
	aged       atomic.Uint64
	quotaRej   atomic.Uint64
}

// New returns a queue with the given options.
func New(opt Options) *Queue {
	if opt.BatchDepth <= 0 {
		opt.BatchDepth = 64
	}
	if opt.PriorityDepth <= 0 {
		opt.PriorityDepth = 16
	}
	if opt.AgeLimit == 0 {
		opt.AgeLimit = DefaultAgeLimit
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	q := &Queue{opt: opt, tokens: make(map[uint32]int)}
	q.notEmpty = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

// Push admits an item, blocking while its lane is full. It returns
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
			q.quotaRej.Add(1)
			return ErrQuota
		}
		if it.Priority {
			if q.prio.len() < q.opt.PriorityDepth {
				break
			}
		} else if q.batch.len() < q.opt.BatchDepth {
			break
		}
		q.space.Wait()
	}
	it.enqueued = q.opt.Now()
	q.tokens[it.Client]++
	if it.Priority {
		q.prio.push(it)
		q.pushedPrio.Add(1)
	} else {
		q.batch.push(it)
	}
	q.pushed.Add(1)
	q.notEmpty.Signal()
	return nil
}

// Pop dequeues the next item by policy — latency lane first, unless
// the batch head has aged past AgeLimit — blocking while both lanes
// are empty. After Close it drains what remains, then reports false.
func (q *Queue) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.prio.len() == 0 && q.batch.len() == 0 {
		if q.closed {
			return Item{}, false
		}
		q.notEmpty.Wait()
	}
	return q.popLocked(), true
}

func (q *Queue) popLocked() Item {
	if q.batch.len() > 0 {
		if q.prio.len() == 0 {
			q.space.Broadcast()
			return q.batch.pop()
		}
		if q.opt.AgeLimit > 0 && q.opt.Now().Sub(q.batch.peek().enqueued) >= q.opt.AgeLimit {
			q.aged.Add(1)
			q.space.Broadcast()
			return q.batch.pop()
		}
	}
	it := q.prio.pop()
	q.space.Broadcast()
	return it
}

// SetClientQuota hot-reloads the per-client token budget (0 =
// unlimited). A lowered quota never cancels admitted jobs: clients over
// the new budget simply cannot push again until enough of their jobs
// complete. Pushers blocked on a full lane re-check against the new
// value when they wake.
func (q *Queue) SetClientQuota(n int) {
	if n < 0 {
		n = 0
	}
	q.mu.Lock()
	q.opt.ClientQuota = n
	q.mu.Unlock()
}

// SetAgeLimit hot-reloads the batch-ageing bound with the same
// semantics as Options.AgeLimit: 0 means DefaultAgeLimit, negative
// disables ageing (strict priority). Takes effect on the next Pop.
func (q *Queue) SetAgeLimit(d time.Duration) {
	if d == 0 {
		d = DefaultAgeLimit
	}
	q.mu.Lock()
	q.opt.AgeLimit = d
	q.mu.Unlock()
}

// ClientQuota returns the live per-client token budget (0 =
// unlimited).
func (q *Queue) ClientQuota() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.opt.ClientQuota
}

// AgeLimit returns the live ageing bound (negative = disabled).
func (q *Queue) AgeLimit() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.opt.AgeLimit
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

// Stats returns a snapshot of the queue's counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	s := Stats{
		BatchQueued:    q.batch.len(),
		PriorityQueued: q.prio.len(),
		Clients:        len(q.tokens),
	}
	q.mu.Unlock()
	s.Pushed = q.pushed.Load()
	s.PushedPriority = q.pushedPrio.Load()
	s.Aged = q.aged.Load()
	s.QuotaRejected = q.quotaRej.Load()
	return s
}
