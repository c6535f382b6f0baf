package server

import (
	"math/rand"
	"testing"
	"time"
)

// TestIngestBatchAbsorbsTrailingBurstCaptures pins the flush-absorption
// rule: quorum fires on the Nth distinct AP's first capture, and the
// flushing client's remaining same-burst captures must ride that flush
// — order preserved, released exactly-once by the flush owner —
// instead of stranding in a fresh group that surfaces later as a
// spurious degraded flush and pinned pool workspaces.
func TestIngestBatchAbsorbsTrailingBurstCaptures(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	clock := newFakeClock()
	d := &recordDispatcher{}
	b := NewBackendDispatcher(2, 100*time.Millisecond, d)
	b.DegradedQuorum = 1
	b.DegradedAfter = 200 * time.Millisecond
	b.Now = clock.Now

	rng := rand.New(rand.NewSource(41))
	ts := clock.Now()
	// AP 1's burst: three frames for client 7, below quorum.
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 1, 7, ts),
		wireCapture(rng, 1, 7, ts.Add(time.Millisecond)),
		wireCapture(rng, 1, 7, ts.Add(2*time.Millisecond)),
	}))
	if got := d.take(); len(got) != 0 {
		t.Fatalf("flush fired below quorum: %d flushes", len(got))
	}
	// AP 2's burst: quorum completes on its first capture; the two
	// trailing frames must be absorbed into the same flush.
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 2, 7, ts.Add(3*time.Millisecond)),
		wireCapture(rng, 2, 7, ts.Add(4*time.Millisecond)),
		wireCapture(rng, 2, 7, ts.Add(5*time.Millisecond)),
	}))
	flushes := d.take()
	if len(flushes) != 1 {
		t.Fatalf("want exactly one flush, got %d", len(flushes))
	}
	f := flushes[0]
	if len(f) != 6 {
		t.Fatalf("want 6 captures (3 pending + trigger + 2 absorbed), got %d", len(f))
	}
	wantAPs := []uint32{1, 1, 1, 2, 2, 2}
	for i := range f {
		if f[i].APID != wantAPs[i] {
			t.Errorf("flush[%d]: AP %d, want %d (order not preserved)", i, f[i].APID, wantAPs[i])
		}
		if f[i].Degraded {
			t.Errorf("flush[%d]: flagged Degraded on a full-quorum flush", i)
		}
		if i > 0 && f[i].Timestamp.Before(f[i-1].Timestamp) {
			t.Errorf("flush[%d]: timestamp order not preserved", i)
		}
	}
	if got := b.IngestedCaptures(); got != 6 {
		t.Errorf("IngestedCaptures = %d, want 6", got)
	}

	// Nothing stranded: ageing well past DegradedAfter must find no
	// stuck group to flush degraded or drop.
	clock.advance(time.Second)
	flushed, dropped := b.Sweep()
	if flushed != 0 || dropped != 0 {
		t.Fatalf("spurious sweep work on absorbed burst: flushed=%d dropped=%d", flushed, dropped)
	}
	if got := b.Health().DegradedFlushes; got != 0 {
		t.Fatalf("spurious degraded flushes: %d", got)
	}
	if got := d.take(); len(got) != 0 {
		t.Fatalf("sweep dispatched %d flushes, want 0", len(got))
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("leaked %d pooled ingest workspaces", leaked)
	}
}

// TestIngestBatchAbsorbsIntoDegradedFlush: when the flush that fires
// mid-burst is a degraded one, the absorbed trailing captures inherit
// the Degraded flag so the whole group is marked consistently
// downstream.
func TestIngestBatchAbsorbsIntoDegradedFlush(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	clock := newFakeClock()
	d := &recordDispatcher{}
	b := NewBackendDispatcher(3, 100*time.Millisecond, d)
	b.DegradedQuorum = 1
	b.DegradedAfter = 200 * time.Millisecond
	b.Now = clock.Now

	rng := rand.New(rand.NewSource(42))
	ts := clock.Now()
	// One AP-1 capture, then the group goes stale-stuck (the third AP
	// never reports).
	b.IngestBatch(pooledCaps(t, []Capture{wireCapture(rng, 1, 9, ts)}))
	clock.advance(300 * time.Millisecond)
	// AP 2's burst arrives: its first capture trips degraded serving
	// (age ≥ DegradedAfter at distinct 2 < quorum 3); the two trailing
	// frames must join that degraded flush, flagged like the rest.
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 2, 9, ts.Add(50*time.Millisecond)),
		wireCapture(rng, 2, 9, ts.Add(51*time.Millisecond)),
		wireCapture(rng, 2, 9, ts.Add(52*time.Millisecond)),
	}))
	flushes := d.take()
	if len(flushes) != 1 {
		t.Fatalf("want exactly one degraded flush, got %d", len(flushes))
	}
	f := flushes[0]
	if len(f) != 4 {
		t.Fatalf("want 4 captures (pending + trigger + 2 absorbed), got %d", len(f))
	}
	for i := range f {
		if !f[i].Degraded {
			t.Errorf("flush[%d]: not flagged Degraded", i)
		}
	}
	if got := b.Health().DegradedFlushes; got != 1 {
		t.Fatalf("DegradedFlushes = %d, want 1", got)
	}
	clock.advance(time.Second)
	if flushed, dropped := b.Sweep(); flushed != 0 || dropped != 0 {
		t.Fatalf("spurious sweep work: flushed=%d dropped=%d", flushed, dropped)
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("leaked %d pooled ingest workspaces", leaked)
	}
}
