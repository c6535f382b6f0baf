package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// Control is a shard's handoff surface — everything the router needs
// to move a client's state between shards. LocalShard implements it
// in-process; HTTPShard implements it against a shard process's ops
// endpoint.
type Control interface {
	// Clients returns every client ID with state on the shard: live
	// tracks plus pending (below-quorum) capture groups.
	Clients() ([]uint32, error)
	// Ingested returns the shard's settled-capture counter
	// (server.Backend.IngestedCaptures): the router's consumption
	// barrier.
	Ingested() (uint64, error)
	// InFlight returns the summed count of the clients' jobs admitted
	// to the shard's engine but not yet completed.
	InFlight(ids []uint32) (int, error)
	// ExtractPending removes the clients' pending capture groups and
	// returns them re-encoded as v3 batch frames, plus the capture
	// count. The returned bytes are ready to write to another shard's
	// data socket verbatim.
	ExtractPending(ids []uint32) (frames []byte, captures int, err error)
	// SnapshotTracks returns the clients' Kalman tracks, losslessly.
	SnapshotTracks(ids []uint32) ([]engine.ClientSnapshot, error)
	// RestoreTracks installs the snapshots, returning how many took.
	RestoreTracks(snaps []engine.ClientSnapshot) (int, error)
	// RemoveTracks drops the clients' tracks, returning how many
	// existed.
	RemoveTracks(ids []uint32) (int, error)
}

// Shard is one backend the router fans out to: the data socket its
// captures ride, and the control surface its migrations use.
type Shard struct {
	// Data receives v3 batch frames; the router serializes writes.
	Data io.Writer
	// Ctl is the handoff control surface.
	Ctl Control
}

// DefaultRebalanceTimeout bounds each barrier wait inside Rebalance
// (ingest consumption, in-flight drain). Generous: a shard that cannot
// drain a client's jobs in this long is wedged, not slow.
const DefaultRebalanceTimeout = 30 * time.Second

// ErrRebalanceTimeout is wrapped by Rebalance when a barrier wait
// exceeds the timeout.
var ErrRebalanceTimeout = errors.New("cluster: rebalance barrier timed out")

// shardIO is one shard's serialized data path. buf is the per-shard
// encode scratch, reused across frames under mu; routed counts
// captures written, read by the rebalance write barrier under mu.
type shardIO struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	routed uint64
}

// holdState parks captures for mid-migration clients. moved is
// immutable after construction (readable without the lock); closed and
// batches are guarded by mu. Once closed, late arrivals re-route
// through the swapped map instead of appending.
//
// Captures are parked as one batch per originating AP frame, and the
// flush writes each batch as its own frame: coalescing a client's
// captures across frame boundaries would change the backend's
// flush-absorption grouping (a quorum completing mid-burst absorbs the
// client's burst remainder), silently merging consecutive fixes.
type holdState struct {
	moved map[uint32][2]int // client -> {losing, gaining} shard

	mu      sync.Mutex
	closed  bool
	batches [][]server.Capture
}

func (hs *holdState) holds(clientID uint32) bool {
	_, ok := hs.moved[clientID]
	return ok
}

// Router fans capture traffic from many AP connections out to the
// shard that owns each client, and migrates clients when the shard map
// changes. It speaks the same frames on both sides: AP bursts are
// decoded once (pooled), partitioned by owner, and re-encoded per shard
// — a re-encode that copies each capture's received payload, so a
// shard behind the router decodes exactly the samples a backend fed
// directly would.
type Router struct {
	shards []shardIO
	ctls   []Control

	cur  atomic.Pointer[ShardMap]
	hold atomic.Pointer[holdState]

	// rebalanceMu serializes Rebalance calls; routing never takes it.
	rebalanceMu sync.Mutex

	// RebalanceTimeout bounds each barrier wait inside Rebalance; 0
	// means DefaultRebalanceTimeout.
	RebalanceTimeout time.Duration

	frames     atomic.Uint64
	routed     atomic.Uint64
	held       atomic.Uint64
	rebalances atomic.Uint64
}

// NewRouter returns a router over the shards, routing by initial.
func NewRouter(initial *ShardMap, shards []Shard) (*Router, error) {
	if initial.Shards > len(shards) {
		return nil, fmt.Errorf("cluster: map covers %d shards, router has %d", initial.Shards, len(shards))
	}
	r := &Router{shards: make([]shardIO, len(shards)), ctls: make([]Control, len(shards))}
	for i, s := range shards {
		r.shards[i].w = s.Data
		r.ctls[i] = s.Ctl
	}
	r.cur.Store(initial)
	return r, nil
}

// Map returns the live shard map.
func (r *Router) Map() *ShardMap { return r.cur.Load() }

// RouterStats is a snapshot of the router's counters.
type RouterStats struct {
	// Frames is the number of AP frames decoded; Routed the captures
	// forwarded to shards (held captures count once flushed).
	Frames, Routed uint64
	// Held is the cumulative number of captures parked during
	// migrations.
	Held uint64
	// Rebalances counts completed map swaps.
	Rebalances uint64
	// PerShard is each shard's forwarded-capture count.
	PerShard []uint64
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Frames:     r.frames.Load(),
		Routed:     r.routed.Load(),
		Held:       r.held.Load(),
		Rebalances: r.rebalances.Load(),
		PerShard:   make([]uint64, len(r.shards)),
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		st.PerShard[i] = s.routed
		s.mu.Unlock()
	}
	return st
}

// ServeConn reads v3 frames from one AP connection until EOF or error,
// routing every capture. Mirrors server.Backend.ServeConn: pooled
// decode, buffered reads, a clean EOF returns nil.
func (r *Router) ServeConn(rd io.Reader) error {
	br, ok := rd.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(rd, 256<<10)
	}
	for {
		ws := server.GetIngestWorkspace()
		caps, err := server.ReadFrameInto(br, ws)
		if err != nil {
			ws.Discard()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		r.frames.Add(1)
		if err := r.Route(caps); err != nil {
			return err
		}
	}
}

// Route takes ownership of decoded captures and forwards each to the
// shard owning its client, releasing them once encoded (or holding
// them, references intact, when their client is mid-migration). Safe
// for concurrent use; per-client capture order on one connection is
// preserved through to the owning shard's socket.
func (r *Router) Route(caps []server.Capture) error {
	pending := caps
	for len(pending) > 0 {
		m := r.cur.Load()
		groups := make([][]server.Capture, m.Shards)
		for i := range pending {
			o := m.Owner(pending[i].ClientID)
			groups[o] = append(groups[o], pending[i])
		}
		pending = pending[:0:0]
		for shard, g := range groups {
			if len(g) == 0 {
				continue
			}
			requeue, err := r.forward(shard, g)
			if err != nil {
				// The conn is dead; nothing downstream will release
				// what was not written.
				server.ReleaseAll(requeue)
				for _, og := range groups[shard+1:] {
					server.ReleaseAll(og)
				}
				return err
			}
			pending = append(pending, requeue...)
		}
	}
	return nil
}

// forward writes one owner's captures to shard i. The map and hold set
// are re-checked under the shard's write lock: the rebalance write
// barrier acquires every shard lock after installing the hold, so any
// write that lands after the barrier sees it — a stalled goroutine
// cannot sneak a migrating client's captures to the losing shard.
// Captures that no longer belong here are returned for re-routing.
func (r *Router) forward(i int, caps []server.Capture) (requeue []server.Capture, err error) {
	s := &r.shards[i]
	s.mu.Lock()
	m := r.cur.Load()
	hs := r.hold.Load()
	var diverted []server.Capture
	keep := caps[:0]
	for _, c := range caps {
		switch {
		case hs != nil && hs.holds(c.ClientID):
			diverted = append(diverted, c)
		case m.Owner(c.ClientID) != i:
			requeue = append(requeue, c)
		default:
			keep = append(keep, c)
		}
	}
	if len(keep) > 0 {
		err = r.writeLocked(s, keep)
	}
	s.mu.Unlock()
	if len(diverted) > 0 {
		// Outside the shard lock (the flush path takes hs.mu before
		// shard locks; same order here would deadlock). A hold closed
		// between the check above and this append means the migration
		// finished: re-route through the swapped map.
		hs.mu.Lock()
		if hs.closed {
			hs.mu.Unlock()
			requeue = append(requeue, diverted...)
		} else {
			hs.batches = append(hs.batches, diverted)
			r.held.Add(uint64(len(diverted)))
			hs.mu.Unlock()
		}
	}
	return requeue, err
}

// writeLocked encodes caps as frames into the shard's
// scratch (chunked at the frame capture limit; AP frames fit in one),
// writes them, and releases the captures. Caller holds s.mu.
func (r *Router) writeLocked(s *shardIO, caps []server.Capture) error {
	buf := s.buf[:0]
	var err error
	for off := 0; off < len(caps); off += server.MaxBatchCaptures {
		end := off + server.MaxBatchCaptures
		if end > len(caps) {
			end = len(caps)
		}
		if buf, err = server.AppendBatch(buf, caps[off:end]); err != nil {
			server.ReleaseAll(caps)
			return err
		}
	}
	s.buf = buf
	if _, err := s.w.Write(s.buf); err != nil {
		server.ReleaseAll(caps)
		return err
	}
	s.routed += uint64(len(caps))
	r.routed.Add(uint64(len(caps)))
	server.ReleaseAll(caps)
	return nil
}

// writeFrames forwards pre-encoded v3 frames (an ExtractPending
// result) to shard i verbatim.
func (r *Router) writeFrames(i int, frames []byte, captures int) error {
	if len(frames) == 0 {
		return nil
	}
	s := &r.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(frames); err != nil {
		return err
	}
	s.routed += uint64(captures)
	r.routed.Add(uint64(captures))
	return nil
}

// RebalanceStats reports what one map swap moved.
type RebalanceStats struct {
	// MovedClients is how many clients changed owner; MovedTracks how
	// many live Kalman tracks migrated with them.
	MovedClients, MovedTracks int
	// MovedPending is how many buffered below-quorum captures were
	// re-routed to gaining shards; HeldFlushed how many captures were
	// parked at the router during the swap and flushed after it.
	MovedPending, HeldFlushed int
}

// Rebalance swaps the live shard map for next, migrating every client
// whose owner changes with zero loss:
//
//  1. new captures for moving clients are parked at the router
//     (references held, order preserved);
//  2. a write barrier plus the shards' settled-ingest counters
//     guarantee every already-routed capture has been grouped or
//     dispatched;
//  3. the losing shard's pending groups are extracted and re-routed;
//  4. the engine drains the moving clients' in-flight jobs, so each
//     Kalman track is final;
//  5. tracks are snapshotted, restored on the gaining shard
//     bit-identically, and removed from the losing one;
//  6. the map swaps atomically and the parked captures flush to their
//     new owners.
//
// A failed rebalance leaves routing on the old map (parked captures
// are flushed back through it); retry with a higher version once the
// fault clears. Rebalance calls serialize; routing continues
// concurrently throughout.
func (r *Router) Rebalance(next *ShardMap) (RebalanceStats, error) {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	var st RebalanceStats
	cur := r.cur.Load()
	if next.Version <= cur.Version {
		return st, fmt.Errorf("cluster: map version %d does not advance %d", next.Version, cur.Version)
	}
	if next.Shards > len(r.shards) {
		return st, fmt.Errorf("cluster: map covers %d shards, router has %d", next.Shards, len(r.shards))
	}

	// Discover every client with shard-local state and who moves.
	var all []uint32
	for i := 0; i < cur.Shards; i++ {
		ids, err := r.ctls[i].Clients()
		if err != nil {
			return st, fmt.Errorf("cluster: shard %d clients: %w", i, err)
		}
		all = append(all, ids...)
	}
	moved := cur.Moved(all, next)
	st.MovedClients = len(moved)
	if len(moved) == 0 {
		r.cur.Store(next)
		r.rebalances.Add(1)
		return st, nil
	}

	// 1. Park new traffic for the movers. From here on every exit path
	// must close and flush the hold.
	hs := &holdState{moved: moved}
	r.hold.Store(hs)
	// Flush strictly before clearing the hold pointer: a racer that
	// loaded a nil hold forwards directly, and its capture must not
	// overtake the parked ones (it would scramble per-client order on
	// the gaining shard). Closing under hs.mu makes racers that loaded
	// the hold wait out the flush, then re-route behind it.
	finish := func() {
		st.HeldFlushed = r.flushHold(hs)
		r.hold.Store(nil)
	}

	// 2a. Write barrier: acquiring each shard's write lock after the
	// hold is installed guarantees every later write observes it, and
	// the routed counts read here cover every earlier write.
	routedAt := make([]uint64, len(r.shards))
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		routedAt[i] = s.routed
		s.mu.Unlock()
	}

	// Group the movers by losing shard and by (losing, gaining) pair.
	byFrom := map[int][]uint32{}
	type edge struct{ from, to int }
	byEdge := map[edge][]uint32{}
	for id, ft := range moved {
		byFrom[ft[0]] = append(byFrom[ft[0]], id)
		byEdge[edge{ft[0], ft[1]}] = append(byEdge[edge{ft[0], ft[1]}], id)
	}

	// 2b. Consumption barrier: every capture routed before the hold is
	// settled on its shard (pending, dispatched, or dropped).
	for from := range byFrom {
		ctl := r.ctls[from]
		if err := r.await(func() (bool, error) {
			n, err := ctl.Ingested()
			return n >= routedAt[from], err
		}); err != nil {
			finish()
			return st, fmt.Errorf("cluster: shard %d ingest barrier: %w", from, err)
		}
	}

	// 3. Extract the movers' buffered below-quorum captures, per
	// gaining shard so each extracted frame set forwards verbatim.
	type extracted struct {
		to     int
		frames []byte
		count  int
	}
	var ext []extracted
	for e, ids := range byEdge {
		frames, n, err := r.ctls[e.from].ExtractPending(ids)
		if err != nil {
			finish()
			return st, fmt.Errorf("cluster: shard %d extract: %w", e.from, err)
		}
		if n > 0 {
			ext = append(ext, extracted{e.to, frames, n})
			st.MovedPending += n
		}
	}

	// 4. Drain: with routing parked and pending extracted, no new job
	// can start; wait out the ones already admitted so every fix folds
	// into the losing tracker before the snapshot.
	for from, ids := range byFrom {
		ctl := r.ctls[from]
		if err := r.await(func() (bool, error) {
			n, err := ctl.InFlight(ids)
			return n == 0, err
		}); err != nil {
			finish()
			return st, fmt.Errorf("cluster: shard %d in-flight drain: %w", from, err)
		}
	}

	// 5. Move the tracks: snapshot on the losing shard, restore on the
	// gaining shard *before* any captures arrive there (a fix landing
	// ahead of the restore would fork the track), then remove.
	for e, ids := range byEdge {
		snaps, err := r.ctls[e.from].SnapshotTracks(ids)
		if err != nil {
			finish()
			return st, fmt.Errorf("cluster: shard %d snapshot: %w", e.from, err)
		}
		if len(snaps) > 0 {
			n, err := r.ctls[e.to].RestoreTracks(snaps)
			if err != nil {
				finish()
				return st, fmt.Errorf("cluster: shard %d restore: %w", e.to, err)
			}
			st.MovedTracks += n
		}
		if _, err := r.ctls[e.from].RemoveTracks(ids); err != nil {
			finish()
			return st, fmt.Errorf("cluster: shard %d remove: %w", e.from, err)
		}
	}

	// Extracted captures land on the gaining shards after the tracks,
	// before the held flush — oldest first, order preserved.
	for _, x := range ext {
		if err := r.writeFrames(x.to, x.frames, x.count); err != nil {
			finish()
			return st, fmt.Errorf("cluster: shard %d re-route pending: %w", x.to, err)
		}
	}

	// 6. Swap, then flush the parked captures through the new map.
	r.cur.Store(next)
	finish()
	r.rebalances.Add(1)
	return st, nil
}

// flushHold closes the hold and writes its parked captures through the
// current map — batch by batch, so each original AP frame stays its
// own shard-side burst and the backend's flush-absorption grouping
// matches an unmigrated feed. Late divert attempts block on hs.mu
// until the flush completes, then re-route — parked traffic always
// lands before traffic that raced the close.
func (r *Router) flushHold(hs *holdState) int {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.closed = true
	m := r.cur.Load()
	n := 0
	for _, batch := range hs.batches {
		n += len(batch)
		groups := make([][]server.Capture, m.Shards)
		for i := range batch {
			o := m.Owner(batch[i].ClientID)
			groups[o] = append(groups[o], batch[i])
		}
		for shard, g := range groups {
			if len(g) == 0 {
				continue
			}
			s := &r.shards[shard]
			s.mu.Lock()
			// A dead shard conn must not leak the parked references.
			_ = r.writeLocked(s, g)
			s.mu.Unlock()
		}
	}
	hs.batches = nil
	return n
}

// await polls cond until it reports true, erroring after the rebalance
// timeout.
func (r *Router) await(cond func() (bool, error)) error {
	timeout := r.RebalanceTimeout
	if timeout <= 0 {
		timeout = DefaultRebalanceTimeout
	}
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w after %v", ErrRebalanceTimeout, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
