package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable Backend.Now for deterministic age and
// cooldown arithmetic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0).UTC()} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// wireCapture is batchCapture with pinned identity and timestamp.
func wireCapture(rng *rand.Rand, ap, client uint32, ts time.Time) Capture {
	c := batchCapture(rng, 2, 8)
	c.APID, c.ClientID, c.Timestamp = ap, client, ts
	return c
}

// pooledCaps round-trips caps through the wire into a pooled
// workspace, so the result borrows pool memory exactly like ServeConn
// ingest and the release accounting is real.
func pooledCaps(t *testing.T, caps []Capture) []Capture {
	t.Helper()
	frame := mustFrame(t, caps)
	ws := GetIngestWorkspace()
	decoded, err := ReadFrameInto(bytes.NewReader(frame), ws)
	if err != nil {
		ws.Discard()
		t.Fatal(err)
	}
	return decoded
}

// recordDispatcher keeps metadata copies of every flush and releases
// the captures, like engine.CaptureSink does after job completion.
type recordDispatcher struct {
	mu      sync.Mutex
	flushes [][]Capture
}

func (d *recordDispatcher) Dispatch(clientID uint32, caps []Capture) {
	cp := make([]Capture, len(caps))
	copy(cp, caps)
	d.mu.Lock()
	d.flushes = append(d.flushes, cp)
	d.mu.Unlock()
	ReleaseAll(caps)
}

func (d *recordDispatcher) take() [][]Capture {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.flushes
	d.flushes = nil
	return out
}

// countingDispatch counts flushes into n and releases their captures.
func countingDispatch(n *atomic.Uint64) DispatchFunc {
	return func(_ uint32, caps []Capture) {
		n.Add(1)
		ReleaseAll(caps)
	}
}

// TestServeConnIdleDeadlineReapsStalledConn pins the self-defense
// acceptance gate: a connection that stalls mid-frame is reaped within
// 2× the idle timeout, other connections keep ingesting throughout,
// and the stalled connection's half-decoded workspace goes back to the
// pool.
func TestServeConnIdleDeadlineReapsStalledConn(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	var located atomic.Uint64
	b := NewBackendDispatcher(1, 100*time.Millisecond, countingDispatch(&located))
	b.IdleTimeout = 250 * time.Millisecond

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- b.Serve(ctx, l) }()

	dial := func() net.Conn {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	healthy, stalled := dial(), dial()

	rng := rand.New(rand.NewSource(11))
	frame := mustFrame(t, []Capture{wireCapture(rng, 1, 7, time.Now().UTC())})

	// The stalled connection delivers half a frame and goes quiet; the
	// reap is observed as the server closing the socket.
	if _, err := stalled.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reapedCh := make(chan time.Time, 1)
	go func() {
		io.ReadAll(stalled)
		reapedCh <- time.Now()
	}()

	// The healthy connection keeps writing while we wait for the reap.
	var reapedAt time.Time
	timeout := time.After(5 * time.Second)
waitReap:
	for {
		if _, err := healthy.Write(frame); err != nil {
			t.Fatalf("healthy connection write failed during stall: %v", err)
		}
		select {
		case reapedAt = <-reapedCh:
			break waitReap
		case <-timeout:
			t.Fatal("stalled connection never reaped")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if el := reapedAt.Sub(start); el > 2*b.IdleTimeout {
		t.Errorf("stalled connection reaped after %v, want ≤ 2×%v", el, b.IdleTimeout)
	}
	if h := b.Health(); h.DeadlineReaped != 1 {
		t.Errorf("DeadlineReaped = %d, want 1", h.DeadlineReaped)
	}

	// The healthy connection survived the reap and still ingests.
	before := located.Load()
	if before == 0 {
		t.Error("healthy connection ingested nothing during the stall")
	}
	for i := 0; i < 3; i++ {
		if _, err := healthy.Write(frame); err != nil {
			t.Fatalf("healthy write after reap: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for located.Load() < before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := located.Load(); got < before+3 {
		t.Errorf("healthy connection stopped ingesting after the reap: %d → %d", before, got)
	}

	healthy.Close()
	stalled.Close()
	cancel()
	if err := <-serveDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

func TestBackendQuarantineBudgetAndCooldown(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	clock := newFakeClock()
	var located atomic.Uint64
	b := NewBackendDispatcher(1, 100*time.Millisecond, countingDispatch(&located))
	b.ErrorBudget = 3
	b.Now = clock.Now

	rng := rand.New(rand.NewSource(13))
	ingest := func(ap uint32) {
		b.IngestBatch(pooledCaps(t, []Capture{wireCapture(rng, ap, 9, clock.Now())}))
	}

	b.NoteAPError(3)
	b.NoteAPError(3)
	if h := b.Health(); h.Quarantines != 0 {
		t.Fatalf("quarantined below budget: %+v", h)
	}
	b.NoteAPError(3)
	if h := b.Health(); h.Quarantines != 1 || h.Quarantined != 1 {
		t.Fatalf("budget exhausted but not quarantined: %+v", h)
	}

	ingest(3) // quarantined: dropped and released
	ingest(4) // healthy AP unaffected
	if h := b.Health(); h.QuarantinedDropped != 1 {
		t.Fatalf("QuarantinedDropped = %d, want 1", h.QuarantinedDropped)
	}
	if got := located.Load(); got != 1 {
		t.Fatalf("located %d flushes, want 1 (AP 4 only)", got)
	}

	// Cooldown passes: the AP readmits itself on its next capture.
	clock.advance(DefaultQuarantineCooldown + time.Second)
	ingest(3)
	if got := located.Load(); got != 2 {
		t.Fatalf("located %d flushes after cooldown, want 2", got)
	}
	if h := b.Health(); h.Quarantined != 0 {
		t.Fatalf("gauge still shows quarantine after cooldown: %+v", h)
	}

	// Errors spaced wider than the window never accumulate to the
	// budget.
	for i := 0; i < 6; i++ {
		b.NoteAPError(8)
		clock.advance(11 * time.Second)
	}
	if h := b.Health(); h.Quarantines != 1 {
		t.Fatalf("slow-dripping errors quarantined AP 8: %+v", h)
	}

	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

func TestDegradedFlushAndSweep(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	clock := newFakeClock()
	rec := &recordDispatcher{}
	b := NewBackendDispatcher(4, 100*time.Millisecond, rec)
	b.DegradedQuorum = 2
	b.DegradedAfter = 500 * time.Millisecond
	b.Now = clock.Now

	rng := rand.New(rand.NewSource(17))
	ts := clock.Now()
	// Client 100: two distinct APs — degraded-eligible once stuck.
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 1, 100, ts), wireCapture(rng, 2, 100, ts),
	}))
	// Client 200: one AP — below even the degraded quorum.
	b.IngestBatch(pooledCaps(t, []Capture{wireCapture(rng, 1, 200, ts)}))

	if f, d := b.Sweep(); f != 0 || d != 0 {
		t.Fatalf("sweep fired before DegradedAfter: flushed=%d dropped=%d", f, d)
	}
	clock.advance(600 * time.Millisecond)
	f, d := b.Sweep()
	if f != 1 || d != 1 {
		t.Fatalf("sweep: flushed=%d dropped=%d, want 1 and 1", f, d)
	}
	flushes := rec.take()
	if len(flushes) != 1 || len(flushes[0]) != 2 {
		t.Fatalf("dispatcher saw %d flushes, want one 2-capture degraded flush", len(flushes))
	}
	for _, c := range flushes[0] {
		if !c.Degraded || c.ClientID != 100 {
			t.Fatalf("flush capture not degraded-flagged for client 100: %+v", c)
		}
	}
	if h := b.Health(); h.DegradedFlushes != 1 || h.StaleDropped != 1 {
		t.Fatalf("health after sweep: %+v", h)
	}

	// Ingest-time degraded flush: a stuck degraded-eligible group
	// flushes the moment a new capture finds it past DegradedAfter.
	ts2 := clock.Now()
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 1, 300, ts2), wireCapture(rng, 2, 300, ts2),
	}))
	clock.advance(600 * time.Millisecond)
	b.IngestBatch(pooledCaps(t, []Capture{wireCapture(rng, 2, 300, ts2)}))
	flushes = rec.take()
	if len(flushes) != 1 || len(flushes[0]) != 3 {
		t.Fatalf("ingest-time degraded flush: got %d flushes", len(flushes))
	}
	for _, c := range flushes[0] {
		if !c.Degraded {
			t.Fatal("ingest-time flush not degraded-flagged")
		}
	}

	// A full quorum is never flagged degraded.
	ts3 := clock.Now()
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 1, 400, ts3), wireCapture(rng, 2, 400, ts3),
		wireCapture(rng, 3, 400, ts3), wireCapture(rng, 4, 400, ts3),
	}))
	flushes = rec.take()
	if len(flushes) != 1 || len(flushes[0]) != 4 {
		t.Fatalf("quorum flush: got %v", flushes)
	}
	for _, c := range flushes[0] {
		if c.Degraded {
			t.Fatal("full-quorum flush flagged degraded")
		}
	}

	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

// TestDegradedStaleEvictionReleasesExactlyOnce is the degraded-flush ×
// stale-eviction interaction gate: captures dropped by in-window
// staleness compaction and captures flushed degraded out of the same
// group must each be released exactly once — a double release panics
// (workspace over-release), a missed one shows up in the leased
// gauge.
func TestDegradedStaleEvictionReleasesExactlyOnce(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	clock := newFakeClock()
	rec := &recordDispatcher{}
	b := NewBackendDispatcher(4, 100*time.Millisecond, rec)
	b.DegradedQuorum = 2
	b.DegradedAfter = 200 * time.Millisecond
	b.Now = clock.Now

	rng := rand.New(rand.NewSource(19))
	ts := clock.Now()

	// Part 1: half the group goes stale at ingest time (span > window
	// triggers compaction), the survivors flush degraded via Sweep.
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 1, 500, ts), wireCapture(rng, 2, 500, ts),
	}))
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 3, 500, ts.Add(150*time.Millisecond)),
		wireCapture(rng, 4, 500, ts.Add(150*time.Millisecond)),
	}))
	clock.advance(250 * time.Millisecond)
	if f, d := b.Sweep(); f != 1 || d != 0 {
		t.Fatalf("sweep: flushed=%d dropped=%d, want 1, 0", f, d)
	}
	flushes := rec.take()
	if len(flushes) != 1 || len(flushes[0]) != 2 {
		t.Fatalf("degraded flush carries %d captures, want the 2 fresh ones", len(flushes[0]))
	}
	for _, c := range flushes[0] {
		if !c.Degraded || (c.APID != 3 && c.APID != 4) {
			t.Fatalf("unexpected flush capture: %+v", c)
		}
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("part 1: %d pooled workspaces leaked", leaked)
	}

	// Part 2: the group is degraded-eligible, then staleness knocks it
	// below the degraded quorum before the sweep — compaction releases
	// the stale captures, the sweep releases the undispatchable rest.
	ts2 := clock.Now()
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 1, 600, ts2), wireCapture(rng, 2, 600, ts2),
	}))
	// A late capture 150 ms newer compacts both originals away.
	b.IngestBatch(pooledCaps(t, []Capture{
		wireCapture(rng, 2, 600, ts2.Add(150*time.Millisecond)),
	}))
	clock.advance(250 * time.Millisecond)
	if f, d := b.Sweep(); f != 0 || d != 1 {
		t.Fatalf("sweep: flushed=%d dropped=%d, want 0, 1", f, d)
	}
	if got := len(rec.take()); got != 0 {
		t.Fatalf("undispatchable group reached the dispatcher (%d flushes)", got)
	}
	if h := b.Health(); h.StaleDropped != 1 {
		t.Fatalf("StaleDropped = %d, want 1", h.StaleDropped)
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("part 2: %d pooled workspaces leaked", leaked)
	}
}

func TestIsTransientNetError(t *testing.T) {
	if IsTransientNetError(nil) {
		t.Error("nil is not transient")
	}
	if IsTransientNetError(errors.New("bad frame")) {
		t.Error("arbitrary errors are not transient")
	}
	if IsTransientNetError(ErrBadMagic) {
		t.Error("protocol errors are not transient")
	}
	if !IsTransientNetError(io.ErrClosedPipe) {
		t.Error("closed pipe should be transient")
	}
	if !IsTransientNetError(io.ErrUnexpectedEOF) {
		t.Error("unexpected EOF should be transient")
	}
	// A real refused connection, as arraytrack-ap would see it.
	if _, err := net.Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Skip("something is listening on port 1")
	} else if !IsTransientNetError(err) {
		t.Errorf("refused dial not classified transient: %v", err)
	}
}

// TestUploadRetryRedelivers walks Upload through a refused dial, a
// connection that dies mid-stream, and a healthy connection —
// asserting every buffered capture is delivered despite the faults and
// that each failed attempt was observed exactly once.
func TestUploadRetryRedelivers(t *testing.T) {
	const captures = 10
	n := NewAPNode(42, captures)
	rng := rand.New(rand.NewSource(23))
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < captures; i++ {
		n.Record(uint32(100+i%2), base.Add(time.Duration(i)*time.Millisecond),
			batchCapture(rng, 2, 8).Streams)
	}

	var mu sync.Mutex
	seen := make(map[uint32]int)
	var readers sync.WaitGroup
	readFrames := func(conn net.Conn, maxFrames int) {
		defer readers.Done()
		defer conn.Close()
		for i := 0; maxFrames <= 0 || i < maxFrames; i++ {
			ws := GetIngestWorkspace()
			caps, err := ReadFrameInto(conn, ws)
			if err != nil {
				ws.Discard()
				return
			}
			mu.Lock()
			for _, c := range caps {
				seen[c.Seq]++
			}
			mu.Unlock()
			ReleaseAll(caps)
		}
	}

	dials := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		dials++
		switch dials {
		case 1:
			// A server that is down: real refused dial.
			_, err := net.Dial("tcp", "127.0.0.1:1")
			if err == nil {
				err = io.ErrClosedPipe // fallback if something listens there
			}
			return nil, err
		case 2:
			// A connection that dies after two frames. net.Pipe writes
			// rendezvous with reads, so exactly two frames are
			// delivered before the writer sees the death.
			client, srv := net.Pipe()
			readers.Add(1)
			go readFrames(srv, 2)
			return client, nil
		default:
			client, srv := net.Pipe()
			readers.Add(1)
			go readFrames(srv, 0)
			return client, nil
		}
	}

	var attempts []int
	err := n.Upload(context.Background(), dial, UploadOptions{
		Batch:       2,
		MaxAttempts: 8,
		MinBackoff:  time.Millisecond,
		Rand:        rand.New(rand.NewSource(1)),
		OnAttempt:   func(attempt int, backoff time.Duration, err error) { attempts = append(attempts, attempt) },
	})
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	readers.Wait()
	if dials != 3 {
		t.Fatalf("dialed %d times, want 3", dials)
	}
	if len(attempts) != 2 { // one refused dial, one dead connection
		t.Fatalf("observed %d failed attempts, want 2 (%v)", len(attempts), attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	for seq := 0; seq < captures; seq++ {
		if seen[uint32(seq)] == 0 {
			t.Errorf("capture seq %d never delivered", seq)
		}
	}
}

func TestUploadRetryExhaustsAsTransient(t *testing.T) {
	n := NewAPNode(1, 4)
	rng := rand.New(rand.NewSource(29))
	n.Record(5, time.Unix(1700000000, 0).UTC(), batchCapture(rng, 2, 8).Streams)
	calls := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		calls++
		c, err := net.Dial("tcp", "127.0.0.1:1")
		if err == nil {
			c.Close()
			return nil, io.ErrClosedPipe
		}
		return nil, err
	}
	err := n.Upload(context.Background(), dial, UploadOptions{
		MaxAttempts: 3, MinBackoff: time.Millisecond,
		Rand: rand.New(rand.NewSource(2)),
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if calls != 3 {
		t.Fatalf("dialed %d times, want MaxAttempts=3", calls)
	}
	if n.Buffer.Len() != 1 {
		t.Fatalf("buffer drained despite delivery failure: %d left", n.Buffer.Len())
	}

	// One attempt (MaxAttempts ≤ 1): the dial error comes back as it
	// is, neither wrapped nor retried.
	for _, attempts := range []int{0, 1} {
		calls = 0
		err = n.Upload(context.Background(), dial, UploadOptions{MaxAttempts: attempts})
		if err == nil || errors.Is(err, ErrRetriesExhausted) || !IsTransientNetError(err) || calls != 1 {
			t.Fatalf("MaxAttempts %d: err = %v after %d dials, want the raw dial error after 1", attempts, err, calls)
		}
	}
}

// TestServeNoGoroutineLeak is the CI leak gate: after serving a mix of
// clean, dying, and stalled connections and cancelling the server, the
// goroutine count returns to its baseline.
func TestServeNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()

	var located atomic.Uint64
	b := NewBackendDispatcher(1, 100*time.Millisecond, countingDispatch(&located))
	b.IdleTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- b.Serve(ctx, l) }()

	rng := rand.New(rand.NewSource(31))
	frame := mustFrame(t, []Capture{wireCapture(rng, 1, 7, time.Now().UTC())})
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0: // clean upload and close
			conn.Write(frame)
			conn.Close()
		case 1: // dies mid-frame
			conn.Write(frame[:len(frame)/2])
			conn.Close()
		case 2: // stalls mid-frame; the idle deadline must reap it
			conn.Write(frame[:len(frame)/2])
			defer conn.Close()
		}
	}

	deadline := time.Now().Add(3 * time.Second)
	for located.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-serveDone // Serve's WaitGroup guarantees every ServeConn goroutine exited

	var after int
	for time.Now().Before(deadline) {
		runtime.GC()
		if after = runtime.NumGoroutine(); after <= before {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after > before+1 {
		t.Fatalf("goroutines %d → %d: server leaked", before, after)
	}
}
