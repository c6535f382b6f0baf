package engine

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBase is the first bucket's upper bound; bucket i's is
// latencyBase<<i, so the bounds run 16 µs, 32 µs, … ≈ 8.4 s.
const (
	latencyBase    = 16 * time.Microsecond
	latencyBuckets = 20
)

// latencyHist counts each job's time from Submit to its result in
// fixed log-scale buckets, the last one unbounded. Observing is two
// atomic adds: no lock, no allocation.
type latencyHist struct {
	counts [latencyBuckets + 1]atomic.Uint64
	sumNs  atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	d = max(d, 1)
	// The smallest i with d ≤ latencyBase<<i.
	i := min(bits.Len64(uint64((d-1)/latencyBase)), latencyBuckets)
	h.counts[i].Add(1)
	h.sumNs.Add(uint64(d))
}

// LatencyHistogram is a snapshot of the engine's job latency: each
// completed job's time from Submit to its result — queue wait,
// localization and tracking; wire decode and quorum group-wait happen
// before Submit and are not in it.
type LatencyHistogram struct {
	// Bounds are the buckets' upper bounds, ascending.
	Bounds []time.Duration
	// Counts[i] is the number of jobs in bucket i (not cumulative):
	// latency in (Bounds[i-1], Bounds[i]], and for the last entry, one
	// past Bounds, above every bound.
	Counts []uint64
	// Sum is the total latency of the counted jobs.
	Sum time.Duration
}

// Count is the number of jobs the snapshot counts.
func (h LatencyHistogram) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Latency returns a snapshot of the job latency histogram. Once the
// engine is idle its Count equals Stats().Completed.
func (e *Engine) Latency() LatencyHistogram {
	h := LatencyHistogram{
		Bounds: make([]time.Duration, latencyBuckets),
		Counts: make([]uint64, latencyBuckets+1),
		Sum:    time.Duration(e.latency.sumNs.Load()),
	}
	for i := range h.Counts {
		if i < latencyBuckets {
			h.Bounds[i] = latencyBase << i
		}
		h.Counts[i] = e.latency.counts[i].Load()
	}
	return h
}
