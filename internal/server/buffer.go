// Package server implements ArrayTrack's system architecture (Figure 1
// and §2.1, §4.4): packet detection feeding a circular buffer of frame
// captures at each AP, a compact binary sample-transfer protocol
// between APs and the central server over TCP or UDP, and the latency
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
}

// NewCircularBuffer returns a buffer holding up to capacity captures.
// It panics if capacity is not positive.
func NewCircularBuffer(capacity int) *CircularBuffer {
	if capacity <= 0 {
		panic("server: circular buffer capacity must be positive")
	}
	return &CircularBuffer{entries: make([]Capture, capacity)}
}

// Push appends a capture, evicting the oldest when full. It reports
// whether an eviction occurred.
func (b *CircularBuffer) Push(c Capture) (evicted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.size < len(b.entries) {
		b.entries[(b.start+b.size)%len(b.entries)] = c
		b.size++
		return false
	}
	b.entries[b.start] = c
	b.start = (b.start + 1) % len(b.entries)
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
	return c, true
}

// Len returns the number of buffered captures.
func (b *CircularBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size
}
