package server

import (
	"sync"
	"testing"
	"time"
)

type recordingDispatcher struct {
	mu      sync.Mutex
	flushes map[uint32][]Capture
}

func (d *recordingDispatcher) Dispatch(clientID uint32, captures []Capture) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.flushes == nil {
		d.flushes = make(map[uint32][]Capture)
	}
	d.flushes[clientID] = captures
}

func TestBackendDispatcherReceivesQuorumFlush(t *testing.T) {
	d := &recordingDispatcher{}
	b := NewBackendDispatcher(2, time.Minute, d)
	now := time.Now()
	b.IngestBatch([]Capture{{APID: 1, ClientID: 5, Timestamp: now}})
	if len(d.flushes) != 0 {
		t.Fatal("dispatched before quorum")
	}
	if got := b.PendingClients(); got != 1 {
		t.Fatalf("PendingClients = %d, want 1", got)
	}
	b.IngestBatch([]Capture{{APID: 2, ClientID: 5, Timestamp: now}})
	cs, ok := d.flushes[5]
	if !ok {
		t.Fatal("quorum reached but nothing dispatched")
	}
	if len(cs) != 2 {
		t.Fatalf("dispatched %d captures, want 2", len(cs))
	}
	if got := b.PendingClients(); got != 0 {
		t.Fatalf("PendingClients after flush = %d, want 0", got)
	}
}

func TestBackendDispatcherPreferredOverLocate(t *testing.T) {
	d := &recordingDispatcher{}
	locateCalled := false
	b := NewBackend(1, time.Minute, func(uint32, []Capture) { locateCalled = true })
	b.Dispatcher = d
	b.IngestBatch([]Capture{{APID: 1, ClientID: 9, Timestamp: time.Now()}})
	if locateCalled {
		t.Error("Locate ran despite a Dispatcher being set")
	}
	if _, ok := d.flushes[9]; !ok {
		t.Error("Dispatcher did not receive the flush")
	}
}

func TestBackendPendingSpansShards(t *testing.T) {
	b := NewBackend(3, time.Minute, func(uint32, []Capture) {})
	now := time.Now()
	// Client IDs chosen across the whole space so they land in many
	// different shards; the count must still be exact.
	const n = 500
	for c := uint32(0); c < n; c++ {
		b.IngestBatch([]Capture{{APID: 1, ClientID: c*7919 + 1, Timestamp: now}})
	}
	if got := b.PendingClients(); got != n {
		t.Fatalf("PendingClients = %d, want %d", got, n)
	}
}

func TestBackendConcurrentIngestExactFlushes(t *testing.T) {
	var mu sync.Mutex
	flushed := make(map[uint32]int)
	b := NewBackend(3, time.Minute, func(clientID uint32, cs []Capture) {
		mu.Lock()
		flushed[clientID]++
		mu.Unlock()
	})
	const clients = 200
	now := time.Now()
	var wg sync.WaitGroup
	for ap := uint32(1); ap <= 3; ap++ {
		wg.Add(1)
		go func(ap uint32) {
			defer wg.Done()
			for c := uint32(1); c <= clients; c++ {
				b.IngestBatch([]Capture{{APID: ap, ClientID: c, Timestamp: now}})
			}
		}(ap)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != clients {
		t.Fatalf("%d clients flushed, want %d", len(flushed), clients)
	}
	for c, n := range flushed {
		if n != 1 {
			t.Fatalf("client %d flushed %d times", c, n)
		}
	}
	if got := b.PendingClients(); got != 0 {
		t.Fatalf("PendingClients = %d, want 0", got)
	}
}
