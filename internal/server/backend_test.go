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

// TestDispatchFuncReceivesFlush: a function adapted with DispatchFunc
// is called once per quorum flush, with the client and its captures.
func TestDispatchFuncReceivesFlush(t *testing.T) {
	var gotClient uint32
	var got []Capture
	b := NewBackendDispatcher(1, time.Minute, DispatchFunc(func(clientID uint32, cs []Capture) {
		gotClient, got = clientID, cs
	}))
	b.IngestBatch([]Capture{{APID: 1, ClientID: 9, Seq: 4, Timestamp: time.Now()}})
	if gotClient != 9 || len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("DispatchFunc got client %d, captures %+v; want client 9, the one capture", gotClient, got)
	}
}

func TestBackendPendingSpansShards(t *testing.T) {
	b := NewBackendDispatcher(3, time.Minute, &recordingDispatcher{})
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
	b := NewBackendDispatcher(3, time.Minute, DispatchFunc(func(clientID uint32, cs []Capture) {
		mu.Lock()
		flushed[clientID]++
		mu.Unlock()
	}))
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
