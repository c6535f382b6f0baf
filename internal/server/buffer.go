// Package server implements ArrayTrack's system architecture (Figure 1
// and §2.1, §4.4): packet detection feeding a circular buffer of frame
// captures at each AP, a compact binary sample-transfer protocol
// between APs and the central server over TCP, and the latency
// accounting of §4.4.
package server

import (
	"sync"
	"time"
)

// Capture is one detected frame's worth of per-antenna samples,
// annotated with where and when it was heard. It is the unit stored in
// the circular buffer and shipped to the backend.
type Capture struct {
	// APID identifies the capturing access point.
	APID uint32
	// ClientID identifies the transmitter (learned out of band; the
	// frame contents themselves are immaterial to ArrayTrack).
	ClientID uint32
	// Seq is a per-AP monotonically increasing capture number.
	Seq uint32
	// Timestamp is the detection time.
	Timestamp time.Time
	// Degraded marks a capture flushed by the backend's degraded-quorum
	// path: its group reached only DegradedQuorum ≤ distinct < Quorum
	// APs after sitting stuck for DegradedAfter. It is set by the
	// backend at flush time — never carried on the wire — and rides the
	// capture so the engine can flag the resulting fix end-to-end
	// (Capture → Request → Result → TrackUpdate).
	Degraded bool
	// received is 1 + this capture's index in the frame it was decoded
	// from, 0 for a capture that was not decoded. With owner it finds
	// the int16 I/Q payload and scale field the capture arrived in,
	// which a stream decode leaves in the owner's frame buffer for as
	// long as the lease lasts: while Streams is still what was decoded,
	// AppendBatch copies that payload instead of re-quantizing (see
	// wirePayload), so forwarding a received capture costs one copy and
	// reproduces the sender's bytes. It sits here, in the padding behind
	// Degraded, because a Capture is copied by value all along the
	// ingest path and its width is most of what a small record costs
	// there.
	received uint32
	// Streams holds the per-antenna baseband samples of the captured
	// preamble section. For captures decoded by ReadFrameInto or
	// DecodeDatagramInto the memory is borrowed from an IngestWorkspace
	// and must be returned with Release once consumed; captures built
	// any other way own their streams and Release is a no-op. Borrowed
	// streams are read-only: AppendBatch may send the remembered wire
	// payload in their place.
	Streams [][]complex128

	// owner is the ingest workspace the streams are borrowed from;
	// nil for captures that own their memory. See Release.
	owner *IngestWorkspace
}

// CircularBuffer is the fixed-capacity frame store of §2.1: one logical
// entry per detected frame, overwriting the oldest entry when full. It
// is safe for concurrent use (the detector goroutine writes while the
// uploader reads).
type CircularBuffer struct {
	mu      sync.Mutex
	entries []Capture
	start   int // index of oldest entry
	size    int
	// Per-client index: live entry count and newest timestamp, kept
	// in lockstep with the ring so RecentForClient needs one scan
	// (collect) instead of two (find-newest, then collect).
	count  map[uint32]int
	newest map[uint32]time.Time
}

// NewCircularBuffer returns a buffer holding up to capacity captures.
// It panics if capacity is not positive.
func NewCircularBuffer(capacity int) *CircularBuffer {
	if capacity <= 0 {
		panic("server: circular buffer capacity must be positive")
	}
	return &CircularBuffer{
		entries: make([]Capture, capacity),
		count:   make(map[uint32]int),
		newest:  make(map[uint32]time.Time),
	}
}

// noteAdd folds a stored capture into the per-client index.
func (b *CircularBuffer) noteAdd(c *Capture) {
	b.count[c.ClientID]++
	if c.Timestamp.After(b.newest[c.ClientID]) {
		b.newest[c.ClientID] = c.Timestamp
	}
}

// noteDrop removes a departing capture from the per-client index. When
// the departing entry carried the client's newest timestamp the
// remaining entries are rescanned — rare under FIFO eviction, where
// the oldest entry leaves first.
func (b *CircularBuffer) noteDrop(c *Capture) {
	n := b.count[c.ClientID] - 1
	if n <= 0 {
		delete(b.count, c.ClientID)
		delete(b.newest, c.ClientID)
		return
	}
	b.count[c.ClientID] = n
	if !c.Timestamp.Before(b.newest[c.ClientID]) {
		var newest time.Time
		for i := 0; i < b.size; i++ {
			e := &b.entries[(b.start+i)%len(b.entries)]
			if e.ClientID == c.ClientID && e.Timestamp.After(newest) {
				newest = e.Timestamp
			}
		}
		b.newest[c.ClientID] = newest
	}
}

// Push appends a capture, evicting the oldest when full. It reports
// whether an eviction occurred.
func (b *CircularBuffer) Push(c Capture) (evicted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.size < len(b.entries) {
		b.entries[(b.start+b.size)%len(b.entries)] = c
		b.size++
		b.noteAdd(&c)
		return false
	}
	old := b.entries[b.start]
	b.entries[b.start] = c
	b.start = (b.start + 1) % len(b.entries)
	// Index order matters: the evicted entry is gone from the ring
	// before noteDrop's rescan runs, and the new one is in.
	b.noteAdd(&c)
	b.noteDrop(&old)
	return true
}

// Pop removes and returns the oldest capture.
func (b *CircularBuffer) Pop() (Capture, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.size == 0 {
		return Capture{}, false
	}
	c := b.entries[b.start]
	b.entries[b.start] = Capture{} // release sample memory
	b.start = (b.start + 1) % len(b.entries)
	b.size--
	b.noteDrop(&c)
	return c, true
}

// Len returns the number of buffered captures.
func (b *CircularBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size
}

// Cap returns the buffer capacity.
func (b *CircularBuffer) Cap() int { return len(b.entries) }

// Snapshot returns the buffered captures oldest-first without removing
// them.
func (b *CircularBuffer) Snapshot() []Capture {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Capture, b.size)
	for i := 0; i < b.size; i++ {
		out[i] = b.entries[(b.start+i)%len(b.entries)]
	}
	return out
}

// RecentForClient returns the buffered captures for the given client
// whose timestamps fall within window of the newest such capture —
// the grouping rule of the multipath suppression algorithm (frames
// spaced closer than 100 ms, §2.4). The newest timestamp comes from
// the per-client index, so one O(capacity) collect pass runs under
// the lock instead of the two full scans the seed paid per flush.
func (b *CircularBuffer) RecentForClient(clientID uint32, window time.Duration) []Capture {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.count[clientID]
	if n == 0 {
		return nil
	}
	newest := b.newest[clientID]
	out := make([]Capture, 0, n)
	for i := 0; i < b.size; i++ {
		c := &b.entries[(b.start+i)%len(b.entries)]
		if c.ClientID == clientID && newest.Sub(c.Timestamp) <= window {
			out = append(out, *c)
		}
	}
	return out
}
