package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// LocalShardOptions configures one in-process shard.
type LocalShardOptions struct {
	// SocketPath is the unix socket the shard's backend listens on and
	// the router's data connection dials. Required.
	SocketPath string
	// Quorum and Window configure the backend's capture grouping.
	Quorum int
	Window time.Duration
	// Engine configures the shard's localization engine. A Tracker is
	// required for handoff; one is created from TrackerOptions when
	// Engine.Tracker is nil.
	Engine         engine.Options
	TrackerOptions engine.TrackerOptions
	// Resolve, Min, Max, OnResult configure the capture sink exactly as
	// engine.CaptureSink documents them.
	Resolve  func(apID uint32) *core.AP
	Min, Max geom.Point
	OnResult func(engine.Result)
}

// LocalShard is one shard run inside the current process: a
// server.Backend listening on a unix socket, feeding an engine.Engine
// through a CaptureSink. It is the single-host building block behind
// -exp cluster and the cluster tests, and the in-process reference for
// what a shard `arraytrack-server` (a plain backend behind a -router)
// runs as a separate process. Its control surface is a Node over its
// backend and engine.
type LocalShard struct {
	Backend *server.Backend
	Engine  *engine.Engine
	Tracker *engine.Tracker
	Sink    *engine.CaptureSink

	ln     net.Listener
	conn   net.Conn
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
}

// NewLocalShard starts the shard: backend serving the unix socket, one
// data connection dialed and ready for the router.
func NewLocalShard(opt LocalShardOptions) (*LocalShard, error) {
	if opt.SocketPath == "" {
		return nil, fmt.Errorf("cluster: local shard needs a socket path")
	}
	if opt.Quorum <= 0 {
		opt.Quorum = 1
	}
	if opt.Window <= 0 {
		opt.Window = time.Second
	}
	eopt := opt.Engine
	if eopt.Tracker == nil {
		eopt.Tracker = engine.NewTracker(opt.TrackerOptions)
	}
	s := &LocalShard{done: make(chan struct{})}
	s.Engine = engine.New(eopt)
	s.Tracker = eopt.Tracker
	s.Sink = &engine.CaptureSink{
		Engine:   s.Engine,
		Resolve:  opt.Resolve,
		Min:      opt.Min,
		Max:      opt.Max,
		OnResult: opt.OnResult,
	}
	s.Backend = server.NewBackendDispatcher(opt.Quorum, opt.Window, s.Sink)

	ln, err := net.Listen("unix", opt.SocketPath)
	if err != nil {
		s.Engine.Close()
		return nil, fmt.Errorf("cluster: shard listen: %w", err)
	}
	s.ln = ln
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.done)
		_ = s.Backend.Serve(ctx, ln)
	}()
	conn, err := net.Dial("unix", opt.SocketPath)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("cluster: shard dial: %w", err)
	}
	s.conn = conn
	return s, nil
}

// Shard returns the router-facing view: the data connection plus a
// Node over this shard's backend and engine.
func (s *LocalShard) Shard() Shard {
	return Shard{Data: s.conn, Ctl: Node{Backend: s.Backend, Engine: s.Engine}}
}

// Conn returns the shard's dialed data connection — the single-backend
// control path writes frames straight to it, bypassing any router.
func (s *LocalShard) Conn() net.Conn { return s.conn }

// Close tears the shard down: data connection, listener, serve loop,
// then the engine (draining in-flight jobs so the tracker is final).
// Idempotent: extra calls are no-ops.
func (s *LocalShard) Close() {
	s.once.Do(func() {
		if s.conn != nil {
			_ = s.conn.Close()
		}
		s.cancel()
		_ = s.ln.Close()
		<-s.done
		s.Engine.Close()
	})
}

// Node implements Control directly against one shard's backend and
// engine, whose tracker (Engine.Tracker) must be non-nil. It is the one
// implementation of the handoff operations: LocalShard hands it to an
// in-process router, and ServeControl serves it to an HTTPShard in
// another process.
type Node struct {
	Backend *server.Backend
	Engine  *engine.Engine
}

// Clients returns every client with shard-local state: live tracks
// plus pending capture groups, deduplicated and sorted.
func (n Node) Clients() ([]uint32, error) {
	ids := n.Engine.Tracker().Clients()
	seen := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range n.Backend.PendingClientIDs() {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Ingested returns the backend's settled-capture counter.
func (n Node) Ingested() (uint64, error) {
	return n.Backend.IngestedCaptures(), nil
}

// InFlight sums the clients' admitted-but-uncompleted engine jobs.
func (n Node) InFlight(ids []uint32) (int, error) {
	total := 0
	for _, id := range ids {
		total += n.Engine.InFlight(id)
	}
	return total, nil
}

// ExtractPending removes the clients' pending capture groups and
// re-encodes them as frames, ready to forward verbatim.
func (n Node) ExtractPending(ids []uint32) ([]byte, int, error) {
	caps := n.Backend.ExtractPending(ids)
	if len(caps) == 0 {
		return nil, 0, nil
	}
	defer server.ReleaseAll(caps)
	frames, err := server.AppendFrames(nil, caps)
	if err != nil {
		return nil, 0, err
	}
	return frames, len(caps), nil
}

// SnapshotTracks returns the clients' Kalman tracks.
func (n Node) SnapshotTracks(ids []uint32) ([]engine.ClientSnapshot, error) {
	return n.Engine.Tracker().SnapshotClients(ids), nil
}

// RestoreTracks installs the snapshots.
func (n Node) RestoreTracks(snaps []engine.ClientSnapshot) (int, error) {
	return n.Engine.Tracker().Restore(snaps), nil
}

// RemoveTracks drops the clients' tracks.
func (n Node) RemoveTracks(ids []uint32) (int, error) {
	return n.Engine.Tracker().Remove(ids), nil
}
