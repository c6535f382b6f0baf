package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
)

// Detector locates 802.11 preambles in continuous per-antenna sample
// streams using the modified Schmidl–Cox metric of §2.1 and cuts out
// the capture window that gets buffered and shipped.
type Detector struct {
	// Period is the short-training-symbol repetition period in
	// samples (32 at the 40 Msps front-end rate).
	Period int
	// Threshold is the plateau level that counts as detection.
	Threshold float64
	// MinRun is the number of consecutive above-threshold samples
	// required; spanning several short symbols rejects noise and is
	// what lets detection work below decoding SNR (§4.3.4).
	MinRun int
	// Offset is where the shipped window starts, in samples after the
	// detected start: past detection, in the steady preamble.
	Offset int
	// CaptureLen is how many samples per antenna to ship from Offset:
	// the window the server correlates, not the whole preamble.
	CaptureLen int
}

// DefaultDetector returns the §2.1 configuration at 40 Msps: detection
// over the short training symbols, and a capture cut to the window
// core.DefaultConfig reads — samples [100, 110) after the detected
// start, 10 of the preamble's 640.
func DefaultDetector() *Detector {
	return &Detector{Period: 32, Threshold: 0.8, MinRun: 96,
		Offset: core.DefaultSampleOffset, CaptureLen: core.DefaultMaxSamples}
}

// Detect scans antenna 0's stream and returns the detected frame start.
func (d *Detector) Detect(streams [][]complex128) (int, bool) {
	if len(streams) == 0 {
		return 0, false
	}
	return dsp.DetectFrame(streams[0], d.Period, d.Threshold, d.MinRun)
}

// Extract cuts [start+Offset, start+Offset+CaptureLen) from every
// stream into one allocation, clamped to the shortest stream: the
// returned streams all have one length, never more than CaptureLen, and
// less (nil rows once the window starts past the end) only when the
// streams end early — a capture every server refuses
// (core.ErrShortCapture), so an AP does not ship it.
func (d *Detector) Extract(streams [][]complex128, start int) [][]complex128 {
	start += d.Offset
	n := d.CaptureLen
	for _, st := range streams {
		if len(st)-start < n {
			n = len(st) - start
		}
	}
	out := make([][]complex128, len(streams))
	if n <= 0 {
		return out
	}
	backing := make([]complex128, n*len(streams))
	for k, st := range streams {
		out[k] = backing[k*n : (k+1)*n : (k+1)*n]
		copy(out[k], st[start:start+n])
	}
	return out
}

// APNode is the access-point-side half of Figure 1: it owns the
// circular buffer and streams captures to the backend.
type APNode struct {
	// ID identifies this AP in capture records.
	ID uint32
	// Buffer holds detected frames awaiting upload.
	Buffer *CircularBuffer

	seq uint32
	mu  sync.Mutex
}

// NewAPNode returns an AP node with the given buffer capacity.
func NewAPNode(id uint32, bufferCap int) *APNode {
	return &APNode{ID: id, Buffer: NewCircularBuffer(bufferCap)}
}

// Record stamps a capture with this AP's identity and sequence number
// and buffers it.
func (n *APNode) Record(clientID uint32, ts time.Time, streams [][]complex128) {
	n.mu.Lock()
	seq := n.seq
	n.seq++
	n.mu.Unlock()
	n.Buffer.Push(Capture{
		APID:      n.ID,
		ClientID:  clientID,
		Seq:       seq,
		Timestamp: ts,
		Streams:   streams,
	})
}

// Dispatcher receives a client's grouped captures (possibly several
// frames per AP) when a quorum of APs has reported. It runs on the
// ingest path, so it is expected to enqueue the work (e.g. onto the
// localization engine's worker pool) and return promptly.
//
// The dispatcher takes ownership of the flushed captures: their
// stream buffers may be borrowed from a pooled ingest workspace, and
// each capture must be Released exactly once after its samples are
// consumed (engine.CaptureSink does this when the localization job
// completes; a callback that keeps nothing calls ReleaseAll).
type Dispatcher interface {
	Dispatch(clientID uint32, captures []Capture)
}

// DispatchFunc adapts a function to a Dispatcher.
type DispatchFunc func(clientID uint32, captures []Capture)

// Dispatch calls f(clientID, captures).
func (f DispatchFunc) Dispatch(clientID uint32, captures []Capture) { f(clientID, captures) }

// pendingGroup is one client's partially grouped captures. A group
// lives in the pending map only while it holds captures: once flushed,
// extracted or dropped it leaves the map and goes back to groupPool,
// so the flush→regroup cycle reuses its backing array instead of
// growing a fresh slice capture by capture, and a client that never
// returns leaves nothing behind.
type pendingGroup struct {
	caps []Capture
	// Incremental bounds and distinct-AP set so the hot path never
	// rescans the group: a sweep is only needed when newest-oldest
	// exceeds the window (something may actually be stale) or the AP
	// set outgrew its inline array.
	newest  time.Time
	oldest  time.Time
	aps     [32]uint32
	apsN    int
	apsFull bool
	// firstAt is the wall-clock instant the group went empty→nonempty,
	// the degraded-quorum age reference. Only stamped when degraded
	// serving or quarantine is enabled (the hot path pays no clock read
	// otherwise).
	firstAt time.Time
	// fired is 1 + the index of the flush this group fired in the
	// IngestBatch call holding the lock, 0 otherwise; the call clears
	// it before it unlocks.
	fired int
}

// groupPool recycles emptied groups. reset zeroes a group's captures,
// so a pooled group pins no stream buffer.
var groupPool = sync.Pool{New: func() any { return new(pendingGroup) }}

// reset clears the group's running metadata for its next round. The
// caps slice must already have been taken or released.
func (g *pendingGroup) reset() {
	for i := range g.caps {
		g.caps[i] = Capture{}
	}
	g.caps = g.caps[:0]
	g.newest, g.oldest, g.firstAt = time.Time{}, time.Time{}, time.Time{}
	g.apsN, g.apsFull = 0, false
}

// take removes the group's captures as an exactly-sized flush slice —
// it leaves the backend, so the dispatcher may hold it past this call
// — and resets the group, keeping its backing array for the group's
// next use (the retained backing must not pin pooled stream buffers,
// hence the zeroing in reset).
func (g *pendingGroup) take() []Capture {
	flush := make([]Capture, len(g.caps))
	copy(flush, g.caps)
	g.reset()
	return flush
}

// note records one appended capture in the group's running metadata.
func (g *pendingGroup) note(c *Capture) {
	if len(g.caps) == 1 {
		g.newest, g.oldest = c.Timestamp, c.Timestamp
	} else {
		if c.Timestamp.After(g.newest) {
			g.newest = c.Timestamp
		}
		if g.oldest.After(c.Timestamp) {
			g.oldest = c.Timestamp
		}
	}
	if g.apsFull {
		return
	}
	for _, id := range g.aps[:g.apsN] {
		if id == c.APID {
			return
		}
	}
	if g.apsN < len(g.aps) {
		g.aps[g.apsN] = c.APID
		g.apsN++
		return
	}
	g.apsFull = true
}

// compact drops entries stale relative to the newest timestamp,
// releases their pooled buffers, and rebuilds the running metadata.
// It returns the distinct-AP count of the survivors. The distinct
// pass checks each entry against the IDs found so far — O(entries ×
// distinct), never the seed's per-ingest map allocation.
func (g *pendingGroup) compact(window time.Duration) int {
	list := g.caps
	fresh := list[:0]
	for i := range list {
		e := list[i]
		if g.newest.Sub(e.Timestamp) <= window {
			fresh = append(fresh, e)
		} else {
			// A dropped capture never reaches a dispatcher; its pooled
			// buffers go back now.
			e.Release()
		}
	}
	// Zero stale ghosts past the compaction point so the retained
	// backing does not pin released stream buffers.
	for i := len(fresh); i < len(list); i++ {
		list[i] = Capture{}
	}
	g.caps = fresh
	g.oldest = g.newest
	seen := g.aps[:0]
	for i := range fresh {
		if g.oldest.After(fresh[i].Timestamp) {
			g.oldest = fresh[i].Timestamp
		}
		id := fresh[i].APID
		dup := false
		for _, s := range seen {
			if s == id {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, id)
		}
	}
	distinct := len(seen)
	if distinct <= len(g.aps) {
		// seen aliases g.aps unless append spilled to the heap.
		copy(g.aps[:], seen)
		g.apsN, g.apsFull = distinct, false
	} else {
		g.apsN, g.apsFull = 0, true
	}
	return distinct
}

// Backend is the central ArrayTrack server: it ingests capture records
// from every AP, groups them by client, and hands the group to the
// Dispatcher when a quorum of distinct APs has reported within the
// grouping window. All grouping, quarantine and UDP sequence state
// sits under one mutex, taken once per ingested burst.
type Backend struct {
	// Quorum is the number of distinct APs required before location
	// synthesis runs.
	Quorum int
	// Window is the maximum capture age retained for grouping (the
	// ≤100 ms rule of §2.4 applies downstream; the backend keeps a
	// slightly generous margin).
	Window time.Duration
	// Dispatcher receives quorum flushes. Required.
	Dispatcher Dispatcher

	// IdleTimeout, when positive, bounds how long ServeConn waits for
	// the next byte from a connection before reaping it (counted in
	// Health). A stalled AP link then costs one connection for one
	// timeout instead of a parked goroutine and its read buffer
	// forever.
	IdleTimeout time.Duration

	// DegradedQuorum enables degraded serving when set in
	// 0 < DegradedQuorum < Quorum: a pending group stuck for at least
	// DegradedAfter with DegradedQuorum ≤ distinct APs < Quorum is
	// flushed anyway, every capture flagged Degraded. 0 (the default)
	// keeps strict quorum-only serving. Groups below DegradedQuorum
	// are dropped by Sweep after the same age so a dead AP cannot pin
	// pooled captures forever.
	DegradedQuorum int
	// DegradedAfter is the stuck-group age that triggers degraded
	// serving; 0 means DefaultDegradedAfter.
	DegradedAfter time.Duration

	// ErrorBudget is the number of connection/decode errors within
	// DefaultErrorWindow that quarantines an AP: its captures are
	// dropped (and counted) until DefaultQuarantineCooldown passes, then
	// it is automatically readmitted. 0 disables quarantine.
	ErrorBudget int

	// Now overrides the clock for grouping-age and quarantine
	// arithmetic (tests and simulations); nil means time.Now. Read
	// deadlines always use the real clock — they arm the kernel timer.
	Now func() time.Time

	// mu guards the pending groups, the per-AP error budgets and the
	// UDP sequence accounting.
	mu      sync.Mutex
	pending map[uint32]*pendingGroup // keyed by client; empty only mid-IngestBatch
	// apHealth holds each AP's error budget; quarantined counts the APs
	// whose quarantine is still set, so with none the ingest path skips
	// the per-capture lookup.
	apHealth    map[uint32]*apHealthState
	quarantined int
	// UDP datagram-mode health. Fire-and-forget feeds have no
	// retransmit, so losses surface as counters instead: per-AP
	// capture sequence numbers are tracked and every hole counted.
	udpLast  map[uint32]uint32 // per-AP last capture seq seen
	udpStats UDPStats

	connErrors      atomic.Uint64
	deadlineReaped  atomic.Uint64
	quarantines     atomic.Uint64
	quarDropped     atomic.Uint64
	degradedFlushes atomic.Uint64
	staleDropped    atomic.Uint64
	ingested        atomic.Uint64
}

// UDPStats counts the datagram ingest path's health.
type UDPStats struct {
	// Datagrams is the number of well-formed batch-frame datagrams
	// ingested; Captures the captures they carried.
	Datagrams, Captures uint64
	// Bad is the number of datagrams dropped as undecodable (short or
	// malformed frames, hostile dimensions, bad regions).
	Bad uint64
	// SeqGaps is the total number of missing per-AP capture sequence
	// numbers — the fire-and-forget substitute for retransmit
	// accounting. SeqReorders counts captures that arrived with a
	// sequence number at or below the AP's newest (late or duplicate
	// datagrams).
	SeqGaps, SeqReorders uint64
}

// UDP returns a snapshot of the datagram ingest counters.
func (b *Backend) UDP() UDPStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.udpStats
}

// Fault-tolerance defaults. DegradedAfter trades fix latency against
// the chance the missing AP is merely late: half a second is several
// grouping windows, long enough that the quorum is genuinely short.
// DefaultErrorWindow and DefaultQuarantineCooldown have no override:
// the first is how old an error may be and still count against
// ErrorBudget, the second how long a quarantined AP stays isolated.
const (
	DefaultDegradedAfter      = 500 * time.Millisecond
	DefaultErrorWindow        = 10 * time.Second
	DefaultQuarantineCooldown = 30 * time.Second
)

// apHealthState is one AP's error budget: recent error times while
// healthy, the release instant while quarantined.
type apHealthState struct {
	errAt []time.Time
	until time.Time // non-zero while quarantined
}

// HealthStats is a snapshot of the backend's fault counters.
type HealthStats struct {
	// ConnErrors counts connections ServeConn terminated on a
	// read/decode error (clean EOFs and idle reaps excluded).
	ConnErrors uint64
	// DeadlineReaped counts connections reaped by the idle deadline.
	DeadlineReaped uint64
	// Quarantines counts times an AP entered quarantine;
	// QuarantinedDropped the captures dropped while their AP was in
	// it.
	Quarantines        uint64
	QuarantinedDropped uint64
	// DegradedFlushes counts groups flushed below full quorum;
	// StaleDropped counts stuck groups Sweep released as
	// undispatchable (below even the degraded quorum).
	DegradedFlushes uint64
	StaleDropped    uint64
	// Quarantined is the number of currently quarantined APs (gauge).
	Quarantined int
}

// Health returns a snapshot of the backend's fault counters.
func (b *Backend) Health() HealthStats {
	b.mu.Lock()
	quarantined := b.quarantined
	b.mu.Unlock()
	return HealthStats{
		ConnErrors:         b.connErrors.Load(),
		DeadlineReaped:     b.deadlineReaped.Load(),
		Quarantines:        b.quarantines.Load(),
		QuarantinedDropped: b.quarDropped.Load(),
		DegradedFlushes:    b.degradedFlushes.Load(),
		StaleDropped:       b.staleDropped.Load(),
		Quarantined:        quarantined,
	}
}

// IngestedCaptures returns the number of captures accepted into quorum
// grouping (quarantine drops excluded) and fully settled: counted only
// once the ingest call that carried them has returned, so each counted
// capture is either sitting in a pending group, already handed to the
// Dispatcher (whose Submit has returned, making the job visible to
// Engine.InFlight), or dropped. A cluster router uses it as a
// consumption barrier: once a shard's count reaches the number of
// captures routed to it, none is still in flight on the wire or
// mid-dispatch.
func (b *Backend) IngestedCaptures() uint64 { return b.ingested.Load() }

// ExtractPending removes the listed clients' pending (below-quorum)
// groups and returns their captures in arrival order, concatenated per
// client. The caller takes ownership: each returned capture must be
// Released exactly once, or re-ingested somewhere that will. The
// cluster handoff path uses this to re-route a migrating client's
// buffered captures to its new shard instead of letting them strand
// until the sweep.
func (b *Backend) ExtractPending(clientIDs []uint32) []Capture {
	var out []Capture
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range clientIDs {
		if g := b.pending[id]; g != nil {
			out = append(out, g.take()...)
			b.forget(id, g)
		}
	}
	return out
}

// group returns the client's pending group, taking an empty one from
// groupPool on the client's first capture since its last flush. Caller
// holds b.mu.
func (b *Backend) group(clientID uint32) *pendingGroup {
	g := b.pending[clientID]
	if g == nil {
		g = groupPool.Get().(*pendingGroup)
		b.pending[clientID] = g
	}
	return g
}

// forget removes an emptied group from the pending map and pools it.
// Caller holds b.mu.
func (b *Backend) forget(clientID uint32, g *pendingGroup) {
	delete(b.pending, clientID)
	groupPool.Put(g)
}

func (b *Backend) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Backend) degradedAfter() time.Duration {
	if b.DegradedAfter > 0 {
		return b.DegradedAfter
	}
	return DefaultDegradedAfter
}

// NoteAPError charges one error against an AP's budget; when the
// budget is exhausted within DefaultErrorWindow the AP is quarantined
// for DefaultQuarantineCooldown. ServeConn calls it for decode errors
// and idle reaps, attributing the connection to the last AP that
// successfully decoded on it; external supervisors may call it too. A
// no-op when ErrorBudget is unset.
func (b *Backend) NoteAPError(apID uint32) {
	if b.ErrorBudget <= 0 {
		return
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.apHealth == nil {
		b.apHealth = make(map[uint32]*apHealthState)
	}
	st := b.apHealth[apID]
	if st == nil {
		st = &apHealthState{}
		b.apHealth[apID] = st
	}
	if !st.until.IsZero() {
		return // already quarantined; errors while isolated don't extend it
	}
	keep := st.errAt[:0]
	for _, at := range st.errAt {
		if now.Sub(at) <= DefaultErrorWindow {
			keep = append(keep, at)
		}
	}
	st.errAt = append(keep, now)
	if len(st.errAt) >= b.ErrorBudget {
		st.until = now.Add(DefaultQuarantineCooldown)
		st.errAt = st.errAt[:0]
		b.quarantines.Add(1)
		b.quarantined++
	}
}

// dropIfQuarantined releases and counts c when its AP is quarantined
// at now, reporting whether the capture was consumed. Cooldown expiry
// is checked lazily here, so a quarantined AP readmits itself the
// moment it next delivers a capture past the release time. Caller
// holds b.mu.
func (b *Backend) dropIfQuarantined(c *Capture, now time.Time) bool {
	st := b.apHealth[c.APID]
	if st == nil || st.until.IsZero() {
		return false
	}
	if now.Before(st.until) {
		b.quarDropped.Add(1)
		c.Release()
		return true
	}
	st.until = time.Time{}
	b.quarantined--
	return false
}

// IngestDatagram decodes one UDP datagram (exactly one v3 batch
// frame), updates the sequence-gap accounting, and ingests every
// capture. Undecodable datagrams are counted and returned as errors;
// the caller decides whether to keep serving (ServeUDP does). The
// data buffer may be reused immediately after return.
func (b *Backend) IngestDatagram(data []byte) error {
	ws := GetIngestWorkspace()
	caps, err := DecodeDatagramInto(data, ws)
	if err != nil {
		ws.Discard()
		b.mu.Lock()
		b.udpStats.Bad++
		b.mu.Unlock()
		return err
	}
	b.mu.Lock()
	b.udpStats.Datagrams++
	b.udpStats.Captures += uint64(len(caps))
	if b.udpLast == nil {
		b.udpLast = make(map[uint32]uint32)
	}
	for i := range caps {
		c := &caps[i]
		last, seen := b.udpLast[c.APID]
		switch {
		case !seen:
			b.udpLast[c.APID] = c.Seq
		case c.Seq > last:
			b.udpStats.SeqGaps += uint64(c.Seq - last - 1)
			b.udpLast[c.APID] = c.Seq
		default:
			b.udpStats.SeqReorders++
		}
	}
	b.mu.Unlock()
	b.IngestBatch(caps)
	return nil
}

// ServeUDP ingests batch-frame datagrams from conn until the context
// is cancelled — the fire-and-forget sample feed for APs that prefer
// datagrams over a TCP stream. Malformed datagrams are counted (see
// UDP) and dropped, never fatal: one hostile packet must not take the
// feed down.
func (b *Backend) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	buf := make([]byte, 1<<16)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("server: udp read: %w", err)
		}
		_ = b.IngestDatagram(buf[:n])
	}
}

// NewBackendDispatcher returns a backend that hands quorum flushes to
// d — typically an engine.CaptureSink, or a DispatchFunc.
func NewBackendDispatcher(quorum int, window time.Duration, d Dispatcher) *Backend {
	return &Backend{Quorum: quorum, Window: window, Dispatcher: d,
		pending: make(map[uint32]*pendingGroup)}
}

// ingestLocked appends one capture to its client's group and, when a
// quorum of distinct APs is present — or the group has been stuck at
// degraded quorum past DegradedAfter — returns the flush slice (nil
// otherwise), leaving the group empty for its caller to forget. now is
// the burst's clock, zero when neither degraded serving nor quarantine
// is enabled. Caller holds b.mu.
func (b *Backend) ingestLocked(g *pendingGroup, c *Capture, now time.Time) []Capture {
	g.caps = append(g.caps, *c)
	g.note(c)
	if len(g.caps) == 1 {
		g.firstAt = now // zero when degraded serving is off
	}
	// Stale eviction is only possible when the group's span exceeds
	// the window; inside it, yesterday's full sweep was a no-op by
	// definition, so the hot path is append + O(distinct) bookkeeping.
	distinct := g.apsN
	if g.newest.Sub(g.oldest) > b.Window || g.apsFull {
		distinct = g.compact(b.Window)
	}
	if distinct >= b.Quorum {
		// The flush slice leaves the backend (the dispatcher may hold
		// it past this call), so take() gives it its own exactly-sized
		// backing and drops the group's capture copies — the flush
		// slice owns the releases.
		return g.take()
	}
	if b.DegradedQuorum > 0 && distinct >= b.DegradedQuorum &&
		!g.firstAt.IsZero() && now.Sub(g.firstAt) >= b.degradedAfter() {
		return b.takeDegraded(g)
	}
	return nil
}

// takeDegraded flushes a short-of-quorum group, flagging every capture
// Degraded. Caller holds b.mu.
func (b *Backend) takeDegraded(g *pendingGroup) []Capture {
	flush := g.take()
	for i := range flush {
		flush[i].Degraded = true
	}
	b.degradedFlushes.Add(1)
	return flush
}

// groupFlush is one group flushed under b.mu, dispatched after it.
type groupFlush struct {
	client uint32
	g      *pendingGroup
	caps   []Capture
}

// IngestBatch ingests a decoded burst. Each capture joins its client's
// pending group; when a group spans at least Quorum distinct APs, its
// captures are flushed to the Dispatcher and the group is forgotten.
// Stale captures outside Window of the newest are dropped. The burst
// is walked once under one lock acquisition, and its flushes are
// dispatched after the unlock, in the order they fired. Per-client
// capture order is arrival order.
//
// When a flush fires mid-burst, the flushing client's remaining
// captures in the same burst are absorbed into that flush (order
// preserved, released exactly-once by the flush owner) instead of
// seeding a fresh group. Quorum fires on the Nth distinct AP's *first*
// capture; a multi-frame-per-AP burst would otherwise strand its
// trailing frames in a group whose missing APs already contributed to
// the round just flushed, surfacing later as spurious degraded flushes
// and pinned pool workspaces.
func (b *Backend) IngestBatch(caps []Capture) {
	// One clock read per burst, outside the lock (Now is the caller's
	// code), and only when an age or a quarantine can depend on it.
	var now time.Time
	if b.DegradedQuorum > 0 || b.ErrorBudget > 0 {
		now = b.now()
	}
	// The flush list is the call's own: dispatch below runs
	// concurrently with the next burst's walk.
	var flushBuf [8]groupFlush
	flushes := flushBuf[:0]
	accepted := 0
	b.mu.Lock()
	for i := range caps {
		c := &caps[i]
		if b.quarantined > 0 && b.dropIfQuarantined(c, now) {
			continue
		}
		accepted++
		g := b.group(c.ClientID)
		if g.fired > 0 {
			// A flush already fired for this client in this burst:
			// absorb the trailing same-burst captures into it rather
			// than stranding them in a group that can never complete.
			f := &flushes[g.fired-1]
			absorbed := *c
			absorbed.Degraded = f.caps[0].Degraded
			f.caps = append(f.caps, absorbed)
			continue
		}
		if f := b.ingestLocked(g, c, now); f != nil {
			flushes = append(flushes, groupFlush{c.ClientID, g, f})
			g.fired = len(flushes)
		}
	}
	for _, f := range flushes {
		f.g.fired = 0
		b.forget(f.client, f.g)
	}
	b.mu.Unlock()
	for _, f := range flushes {
		b.Dispatcher.Dispatch(f.client, f.caps)
	}
	// Settle-time accounting: the whole burst counts only after every
	// flush it triggered has been dispatched, so a consumption barrier
	// reading IngestedCaptures never races a mid-flight Submit.
	b.ingested.Add(uint64(accepted))
}

// Sweep walks every pending group looking for the ones ingest-time
// checks can never save: a group whose APs went silent receives no
// further captures, so without a sweep its pooled stream buffers stay
// pinned forever and its client goes dark even when a degraded quorum
// is sitting right there. Groups stuck ≥ DegradedAfter flush degraded
// when they hold at least DegradedQuorum distinct APs; the rest are
// released and counted (StaleDropped). Run it periodically (the
// server command's janitor goroutine uses DegradedAfter/2); it
// returns the number of groups flushed and dropped. A no-op unless
// DegradedQuorum is set.
func (b *Backend) Sweep() (flushed, dropped int) {
	if b.DegradedQuorum <= 0 {
		return 0, 0
	}
	now := b.now()
	after := b.degradedAfter()
	var flushes []groupFlush
	b.mu.Lock()
	for id, g := range b.pending {
		if g.firstAt.IsZero() || now.Sub(g.firstAt) < after {
			continue
		}
		// Evict in-window staleness first so the degraded flush
		// carries only captures the quorum rule would have.
		if g.compact(b.Window) >= b.DegradedQuorum {
			// distinct < Quorum always holds here: a full quorum
			// would have flushed at ingest time.
			flushes = append(flushes, groupFlush{client: id, caps: b.takeDegraded(g)})
		} else {
			// Below even the degraded quorum: nothing downstream can use
			// these captures, and their APs may never come back —
			// release them so a dead AP cannot pin the pool.
			for j := range g.caps {
				g.caps[j].Release()
			}
			g.reset()
			b.staleDropped.Add(1)
			dropped++
		}
		b.forget(id, g)
	}
	b.mu.Unlock()
	// Dispatch outside the lock, like the ingest path.
	for _, f := range flushes {
		b.Dispatcher.Dispatch(f.client, f.caps)
	}
	return len(flushes), dropped
}

// PendingClients returns the number of clients with partially grouped
// captures (diagnostics).
func (b *Backend) PendingClients() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// PendingClientIDs returns the IDs of clients holding partially
// grouped captures. The cluster handoff path unions it with the
// tracker's live clients to enumerate every identity with shard-local
// state.
func (b *Backend) PendingClientIDs() []uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]uint32, 0, len(b.pending))
	for id := range b.pending {
		ids = append(ids, id)
	}
	return ids
}

// ServeConn reads frames from r until EOF or error, ingesting every
// capture. It decodes through the pooled zero-copy workspaces, so
// steady-state ingest performs no per-capture allocation. The stream
// is read through a 256 KiB buffer: the feed is one-directional, so
// read-ahead is always safe and the per-frame reads (magic, header,
// body) coalesce into large socket reads. A clean EOF returns nil; a
// stream that is not a feed of frames (a bad magic, reserved flag
// bits) ends as a decode error.
//
// Self-defense: when IdleTimeout is set and r can carry a read
// deadline (a net.Conn), a connection that goes quiet mid- or
// between-frames is reaped after one timeout instead of parking this
// goroutine forever. Decode errors and reaps charge the connection's
// last successfully decoded AP via NoteAPError, feeding the
// quarantine budget. On every exit path the in-flight workspace goes
// straight back to the pool — a connection dying mid-frame leaks
// nothing (the workspace holds no capture references until its frame
// fully decodes).
func (b *Backend) ServeConn(r io.Reader) error {
	var dl interface{ SetReadDeadline(time.Time) error }
	if b.IdleTimeout > 0 {
		dl, _ = r.(interface{ SetReadDeadline(time.Time) error })
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 256<<10)
	}
	var lastAP uint32
	haveAP := false
	for {
		if dl != nil {
			_ = dl.SetReadDeadline(time.Now().Add(b.IdleTimeout))
		}
		ws := GetIngestWorkspace()
		caps, err := ReadFrameInto(br, ws)
		if err != nil {
			ws.Discard()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				b.deadlineReaped.Add(1)
				if haveAP {
					b.NoteAPError(lastAP)
				}
				return fmt.Errorf("server: connection idle past %v: %w", b.IdleTimeout, err)
			}
			b.connErrors.Add(1)
			if haveAP {
				b.NoteAPError(lastAP)
			}
			return err
		}
		lastAP, haveAP = caps[0].APID, true
		b.IngestBatch(caps)
	}
}

// Serve accepts connections from l until the context is cancelled,
// running ServeConn for each in its own goroutine.
func (b *Backend) Serve(ctx context.Context, l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			_ = b.ServeConn(conn)
		}()
	}
}

// Latency itemizes the end-to-end budget of §4.4.
type Latency struct {
	// Detection is Td: preamble air time until detection completes
	// (16 µs of training symbols).
	Detection time.Duration
	// Transfer is Tt: serialization of the capture onto the AP-server
	// link.
	Transfer time.Duration
	// Processing is Tp: server-side spectrum computation plus
	// synthesis.
	Processing time.Duration
}

// Total returns the summed latency the system adds after the packet
// ends.
func (l Latency) Total() time.Duration {
	return l.Detection + l.Transfer + l.Processing
}

// TransferTime returns the §4.4 serialization-time model for a capture
// of the given dimensions, shipped alone in one frame, over a link of
// linkMbps.
func TransferTime(nAnt, nSamp int, linkMbps float64) time.Duration {
	bits := float64((frameHeadSize + subHeadSize + 4*nAnt*nSamp) * 8)
	return time.Duration(bits / (linkMbps * 1e6) * float64(time.Second))
}
