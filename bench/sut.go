package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testbed"
)

// The engine and backend settings cmd/arraytrack-server's flags default
// to. Only quorum varies by workload.
const (
	trackTTL    = 30 * time.Second
	clientQuota = 16
	groupWindow = time.Second
	idleTimeout = 30 * time.Second
)

// sut is the system under test, wired from the public constructors
// exactly as cmd/arraytrack-server wires them, listening on a real
// loopback TCP socket. conn is the generator's one connection to it.
type sut struct {
	conn     net.Conn
	cfg      core.Config
	engines  []*engine.Engine
	backends []*server.Backend
	router   *cluster.Router
	resolve  func(uint32) *core.AP
	tb       *testbed.Testbed
	// closers run in order on stop; each returns once its goroutines
	// have exited.
	closers []func()
}

// wrapDispatcher lets a traced run put its shim between a backend and
// its sink; nil leaves the sink wired straight in.
type wrapDispatcher func(server.Dispatcher) server.Dispatcher

func newResolver(tb *testbed.Testbed) func(uint32) *core.AP {
	capOpt := testbed.DefaultCaptureOptions()
	return func(apID uint32) *core.AP {
		idx := int(apID) - 1
		if idx < 0 || idx >= len(tb.Sites) {
			return nil
		}
		return &core.AP{Array: tb.NewArray(tb.Sites[idx], capOpt)}
	}
}

func engineOptions(cfg core.Config, workers int, tracker *engine.Tracker) engine.Options {
	return engine.Options{Workers: workers, Config: cfg, Tracker: tracker, ClientQuota: clientQuota, Predict: true}
}

func startSUT(tb *testbed.Testbed, w *workload, outDir string, onResult func(engine.Result), wrap wrapDispatcher) (*sut, error) {
	s := &sut{tb: tb, cfg: core.DefaultConfig(tb.Wavelength), resolve: newResolver(tb)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if w.cluster {
		err = s.startCluster(w, l, outDir, onResult, wrap)
	} else {
		s.startSingle(w, l, onResult, wrap)
	}
	if err == nil {
		s.conn, err = net.Dial("tcp", l.Addr().String())
	}
	if err != nil {
		l.Close()
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *sut) startSingle(w *workload, l net.Listener, onResult func(engine.Result), wrap wrapDispatcher) {
	eng := engine.New(engineOptions(s.cfg, 0, engine.NewTracker(engine.TrackerOptions{TTL: trackTTL})))
	sink := &engine.CaptureSink{Engine: eng, Resolve: s.resolve, Min: s.tb.Plan.Min, Max: s.tb.Plan.Max, OnResult: onResult}
	var d server.Dispatcher = sink
	if wrap != nil {
		d = wrap(sink)
	}
	backend := server.NewBackendDispatcher(w.quorum, groupWindow, d)
	backend.IdleTimeout = idleTimeout
	s.engines, s.backends = []*engine.Engine{eng}, []*server.Backend{backend}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = backend.Serve(ctx, l)
	}()
	s.closers = append(s.closers, func() {
		cancel()
		<-done
		eng.Drain()
	})
}

func (s *sut) startCluster(w *workload, l net.Listener, outDir string, onResult func(engine.Result), wrap wrapDispatcher) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	views := make([]cluster.Shard, 2)
	for i := range views {
		path := filepath.Join(outDir, fmt.Sprintf("shard%d-%d.sock", os.Getpid(), i))
		_ = os.Remove(path) // a stale socket from a killed run
		sh, err := cluster.NewLocalShard(cluster.LocalShardOptions{
			SocketPath:     path,
			Quorum:         w.quorum,
			Window:         groupWindow,
			Engine:         engineOptions(s.cfg, 1, nil),
			TrackerOptions: engine.TrackerOptions{TTL: trackTTL},
			Resolve:        s.resolve,
			Min:            s.tb.Plan.Min,
			Max:            s.tb.Plan.Max,
			OnResult:       onResult,
		})
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() {
			sh.Close()
			_ = os.Remove(path)
		})
		if wrap != nil {
			// The shard is already serving its data connection, but the
			// field is only read when a flush dispatches, and no frame
			// has been sent yet.
			sh.Backend.Dispatcher = wrap(sh.Sink)
		}
		s.engines = append(s.engines, sh.Engine)
		s.backends = append(s.backends, sh.Backend)
		views[i] = sh.Shard()
	}
	m, err := cluster.NewShardMap(1, len(views), 0)
	if err != nil {
		return err
	}
	if s.router, err = cluster.NewRouter(m, views); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer l.Close()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = s.router.ServeConn(conn)
	}()
	// The router goes first: it must stop writing before its shards'
	// sockets close.
	s.closers = append([]func(){func() {
		l.Close()
		<-done
	}}, s.closers...)
	return nil
}

// releasePending frees what sub-quorum clients left in the grouping
// window, so the workspace gauge can return to its pre-run value.
func (s *sut) releasePending() {
	for _, b := range s.backends {
		server.ReleaseAll(b.ExtractPending(b.PendingClientIDs()))
	}
}

// stop closes the generator's connection, then every component, and
// returns once all their goroutines have exited.
func (s *sut) stop() {
	if s.conn != nil {
		s.conn.Close()
	}
	for _, c := range s.closers {
		c()
	}
	s.closers = nil
}
