package server

import (
	"bytes"
	"fmt"
	"math/rand"
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

// TestBackendPendingSpansShards: PendingClients counts every client
// with captures pending, across client IDs spread over the whole ID
// space.
func TestBackendPendingSpansShards(t *testing.T) {
	b := NewBackendDispatcher(3, time.Minute, &recordingDispatcher{})
	now := time.Now()
	const n = 500
	for c := uint32(0); c < n; c++ {
		b.IngestBatch([]Capture{{APID: 1, ClientID: c*7919 + 1, Timestamp: now}})
	}
	if got := b.PendingClients(); got != n {
		t.Fatalf("PendingClients = %d, want %d", got, n)
	}
}

// TestBackendForgetsFlushedClients: a client whose group is flushed at
// quorum, extracted for a handoff, or flushed or dropped by the sweep
// leaves no group behind in the pending map, so a backend serving a
// stream of short-lived clients does not grow with each one. A warm
// quorum round allocates only its flush slice.
func TestBackendForgetsFlushedClients(t *testing.T) {
	const clients = 1000
	clock := newFakeClock()
	var flushes int
	b := NewBackendDispatcher(3, time.Second, DispatchFunc(func(_ uint32, cs []Capture) {
		flushes++
		ReleaseAll(cs)
	}))
	b.DegradedQuorum = 2
	b.DegradedAfter = time.Second
	b.Now = clock.Now
	ingestAPs := func(first, aps uint32) {
		for c := first; c < first+clients; c++ {
			burst := make([]Capture, 0, aps)
			for ap := uint32(1); ap <= aps; ap++ {
				burst = append(burst, Capture{APID: ap, ClientID: c, Timestamp: clock.Now()})
			}
			b.IngestBatch(burst)
		}
	}
	groups := func(path string) {
		t.Helper()
		if n := b.pendingGroups(); n != 0 {
			t.Fatalf("%s: %d groups left in the pending map, want 0", path, n)
		}
		if n := b.PendingClients(); n != 0 {
			t.Fatalf("%s: PendingClients = %d, want 0", path, n)
		}
	}

	// Quorum flush, the capture that completes it arriving in a later
	// burst and in the same burst.
	for c := uint32(0); c < clients; c++ {
		b.IngestBatch([]Capture{{APID: 1, ClientID: c, Timestamp: clock.Now()}})
	}
	for c := uint32(0); c < clients; c++ {
		b.IngestBatch([]Capture{
			{APID: 2, ClientID: c, Timestamp: clock.Now()},
			{APID: 3, ClientID: c, Timestamp: clock.Now()},
		})
	}
	ingestAPs(clients, 4)
	if flushes != 2*clients {
		t.Fatalf("%d flushes, want %d", flushes, 2*clients)
	}
	groups("quorum flush")

	// Extraction for a handoff.
	ingestAPs(0, 1)
	ids := b.PendingClientIDs()
	if len(ids) != clients {
		t.Fatalf("%d pending clients, want %d", len(ids), clients)
	}
	extracted := b.ExtractPending(ids)
	if len(extracted) != clients {
		t.Fatalf("extracted %d captures, want %d", len(extracted), clients)
	}
	ReleaseAll(extracted)
	groups("extract")

	// The sweep: degraded flush at two APs, drop at one.
	ingestAPs(0, 2)
	ingestAPs(clients, 1)
	clock.advance(2 * time.Second)
	flushed, dropped := b.Sweep()
	if flushed != clients || dropped != clients {
		t.Fatalf("Sweep flushed %d and dropped %d, want %d each", flushed, dropped, clients)
	}
	groups("sweep")

	if raceEnabled {
		return
	}
	round := []Capture{
		{APID: 1, ClientID: 7, Timestamp: clock.Now()},
		{APID: 2, ClientID: 7, Timestamp: clock.Now()},
		{APID: 3, ClientID: 7, Timestamp: clock.Now()},
	}
	if allocs := testing.AllocsPerRun(100, func() { b.IngestBatch(round) }); allocs != 1 {
		t.Fatalf("warm quorum round: %v allocations, want 1 (the flush slice)", allocs)
	}
	groups("warm rounds")
}

// TestBackendConcurrentIngestExactFlushes: three APs ingest pooled
// captures for the same clients from their own goroutines, each in its
// own client order and several clients to a frame, while a fourth
// goroutine sweeps and lists the pending clients. Every client is
// flushed exactly once, nothing is left pending, and every pooled
// workspace goes back.
func TestBackendConcurrentIngestExactFlushes(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	var mu sync.Mutex
	flushed := make(map[uint32]int)
	b := NewBackendDispatcher(3, time.Minute, DispatchFunc(func(clientID uint32, cs []Capture) {
		mu.Lock()
		flushed[clientID]++
		mu.Unlock()
		ReleaseAll(cs)
	}))
	// The sweep runs but never fires: no group gets an hour old.
	b.DegradedQuorum = 2
	b.DegradedAfter = time.Hour
	const (
		clients  = 200
		perFrame = 4
	)
	rng := rand.New(rand.NewSource(5))
	now := time.Now()
	frames := make([][][]byte, 3)
	for ap := range frames {
		order := rng.Perm(clients)
		for i := 0; i < clients; i += perFrame {
			caps := make([]Capture, 0, perFrame)
			for _, c := range order[i : i+perFrame] {
				caps = append(caps, wireCapture(rng, uint32(ap+1), uint32(c+1), now))
			}
			frames[ap] = append(frames[ap], mustFrame(t, caps))
		}
	}

	var aps, sweeper sync.WaitGroup
	stop := make(chan struct{})
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if f, d := b.Sweep(); f != 0 || d != 0 {
				t.Errorf("sweep flushed %d and dropped %d groups, want none", f, d)
			}
			_ = b.PendingClientIDs()
		}
	}()
	for ap := range frames {
		aps.Add(1)
		go func(frames [][]byte) {
			defer aps.Done()
			for _, frame := range frames {
				ws := GetIngestWorkspace()
				caps, err := ReadFrameInto(bytes.NewReader(frame), ws)
				if err != nil {
					ws.Discard()
					t.Error(err)
					return
				}
				b.IngestBatch(caps)
			}
		}(frames[ap])
	}
	aps.Wait()
	close(stop)
	sweeper.Wait()

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
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

// BenchmarkIngestBatch groups one 1024-capture burst of three APs'
// captures: one client, whose flush absorbs the burst's tail, or 341
// clients, each flushed once.
func BenchmarkIngestBatch(b *testing.B) {
	for _, clients := range []int{1, 341} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			now := time.Now()
			burst := make([]Capture, 1024)
			for i := range burst {
				burst[i] = Capture{APID: uint32(i/clients%3 + 1), ClientID: uint32(i % clients), Timestamp: now}
			}
			be := NewBackendDispatcher(3, time.Minute, DispatchFunc(func(uint32, []Capture) {}))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				be.IngestBatch(burst)
			}
			b.StopTimer()
			if n := be.PendingClients(); n != 0 {
				b.Fatalf("%d clients left pending", n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(burst)), "ns/capture")
		})
	}
}
