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
// to move a client's state between shards. Node is its one
// implementation, over a shard's backend and engine; a router reaches
// it in-process (LocalShard.Shard), or in another process through
// HTTPShard, whose requests ServeControl answers from the shard's Node.
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
// splice scratch, reused across frames under mu; routed counts
// captures written, read by the rebalance write barrier under mu.
type shardIO struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	routed uint64
}

// holdState parks captures for mid-migration clients. moved is
// immutable after construction (readable without the lock); closed and
// frames are guarded by mu. Once closed, late arrivals re-route
// through the swapped map instead of appending.
//
// Captures are parked as one frame per originating AP frame — a copy
// of their bytes, spliced — and the flush splits each parked frame on
// its own: coalescing a client's captures across frame boundaries would
// change the backend's flush-absorption grouping (a quorum completing
// mid-burst absorbs the client's burst remainder), silently merging
// consecutive fixes.
type holdState struct {
	moved map[uint32][2]int // client -> {losing, gaining} shard

	mu     sync.Mutex
	closed bool
	frames [][]byte
}

func (hs *holdState) holds(clientID uint32) bool {
	_, ok := hs.moved[clientID]
	return ok
}

// Router fans capture traffic from many AP connections out to the
// shard that owns each client, and migrates clients when the shard map
// changes. It speaks the same frames on both sides and routes on the
// headers alone: an AP frame is parsed — validated exactly as a backend
// would, so garbage dies here — but no sample is decoded. A frame whose
// captures one shard owns is written on verbatim; any other is spliced
// into one frame per owner from the sub-headers and payloads it
// arrived with, the bytes a decode and re-encode would give, so a shard
// behind the router decodes exactly the samples a backend fed directly
// would.
type Router struct {
	shards []shardIO
	ctls   []Control

	cur  atomic.Pointer[ShardMap]
	hold atomic.Pointer[holdState]

	// rebalanceMu serializes Rebalance calls; routing never takes it.
	rebalanceMu sync.Mutex

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
	// Frames is the number of AP frames parsed; Routed the captures
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

// conn is one AP connection's routing scratch: its read buffer, the
// frame in hand, and the record lists a frame is split through. Pooled,
// so a warm router routes a frame without allocating.
type conn struct {
	br            *bufio.Reader
	f             server.Frame
	pending, next []server.SubRecord
	sel           []server.SubRecord
}

var connPool = sync.Pool{New: func() any { return &conn{br: bufio.NewReaderSize(nil, 256<<10)} }}

// ServeConn reads v3 frames from one AP connection until EOF or error,
// routing every capture. Reads are buffered as in
// server.Backend.ServeConn; a clean EOF returns nil.
func (r *Router) ServeConn(rd io.Reader) error {
	c := connPool.Get().(*conn)
	defer func() {
		c.br.Reset(nil)
		connPool.Put(c)
	}()
	br, ok := rd.(*bufio.Reader)
	if !ok {
		c.br.Reset(rd)
		br = c.br
	}
	for {
		if err := server.ReadFrame(br, &c.f); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		r.frames.Add(1)
		if err := r.route(c); err != nil {
			return err
		}
	}
}

// route forwards each capture of the frame in hand to the shard owning
// its client (or parks it, when its client is mid-migration). Per-client
// capture order on one connection is preserved through to the owning
// shard's socket.
func (r *Router) route(c *conn) error {
	f := &c.f
	pending, next := append(c.pending[:0], f.Subs...), c.next
	for len(pending) > 0 {
		m := r.cur.Load()
		next = next[:0]
		for shard := 0; shard < m.Shards; shard++ {
			c.sel = ownedBy(c.sel[:0], pending, m, shard)
			if len(c.sel) == 0 {
				continue
			}
			var err error
			if next, err = r.forward(shard, f, m, c.sel, next); err != nil {
				return err
			}
		}
		pending, next = next, pending
	}
	c.pending, c.next = pending, next
	return nil
}

// ownedBy appends the records of subs whose client m assigns to shard.
func ownedBy(dst, subs []server.SubRecord, m *ShardMap, shard int) []server.SubRecord {
	for _, s := range subs {
		if m.Owner(s.ClientID) == shard {
			dst = append(dst, s)
		}
	}
	return dst
}

// forward writes the captures sel of f, which m assigned to shard i.
// The map and hold set are re-checked under the shard's write lock: the
// rebalance write barrier acquires every shard lock after installing
// the hold, so any write that lands after the barrier sees it — a
// stalled goroutine cannot sneak a migrating client's captures to the
// losing shard. Captures that no longer belong here are appended to
// requeue for re-routing.
func (r *Router) forward(i int, f *server.Frame, m *ShardMap, sel, requeue []server.SubRecord) ([]server.SubRecord, error) {
	s := &r.shards[i]
	s.mu.Lock()
	cur := r.cur.Load()
	hs := r.hold.Load()
	keep := sel
	var diverted []server.SubRecord
	if cur != m || hs != nil {
		keep = sel[:0]
		for _, sr := range sel {
			switch {
			case hs != nil && hs.holds(sr.ClientID):
				diverted = append(diverted, sr)
			case cur.Owner(sr.ClientID) != i:
				requeue = append(requeue, sr)
			default:
				keep = append(keep, sr)
			}
		}
	}
	var err error
	if len(keep) > 0 {
		err = r.writeLocked(s, f, keep)
	}
	s.mu.Unlock()
	if len(diverted) > 0 {
		// Outside the shard lock (the flush path takes hs.mu before
		// shard locks; same order here would deadlock). A hold closed
		// between the check above and this append means the migration
		// finished: re-route through the swapped map.
		hs.mu.Lock()
		if hs.closed {
			requeue = append(requeue, diverted...)
		} else {
			hs.frames = append(hs.frames, server.AppendSplice(nil, f, diverted))
			r.held.Add(uint64(len(diverted)))
		}
		hs.mu.Unlock()
	}
	return requeue, err
}

// writeLocked writes the captures subs of f to the shard: f's own bytes
// when subs is every capture of f, else one frame spliced into the
// shard's scratch. Caller holds s.mu.
func (r *Router) writeLocked(s *shardIO, f *server.Frame, subs []server.SubRecord) error {
	out := f.Bytes
	if len(subs) < len(f.Subs) {
		s.buf = server.AppendSplice(s.buf[:0], f, subs)
		out = s.buf
	}
	if _, err := s.w.Write(out); err != nil {
		return err
	}
	s.routed += uint64(len(subs))
	r.routed.Add(uint64(len(subs)))
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
//     (their bytes copied, order preserved);
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
		if err := await(func() (bool, error) {
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
		if err := await(func() (bool, error) {
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
// current map — frame by frame, so each original AP frame stays its
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
	var f server.Frame
	var sel []server.SubRecord
	for _, b := range hs.frames {
		if err := server.ParseFrame(b, &f); err != nil {
			continue // cannot happen: the hold spliced b from a parsed frame
		}
		n += len(f.Subs)
		for shard := 0; shard < m.Shards; shard++ {
			if sel = ownedBy(sel[:0], f.Subs, m, shard); len(sel) == 0 {
				continue
			}
			s := &r.shards[shard]
			s.mu.Lock()
			// A dead shard conn loses the write; the conns that route
			// through it report the error.
			_ = r.writeLocked(s, &f, sel)
			s.mu.Unlock()
		}
	}
	hs.frames = nil
	return n
}

// await polls cond until it reports true, erroring after
// DefaultRebalanceTimeout.
func await(cond func() (bool, error)) error {
	deadline := time.Now().Add(DefaultRebalanceTimeout)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w after %v", ErrRebalanceTimeout, DefaultRebalanceTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
