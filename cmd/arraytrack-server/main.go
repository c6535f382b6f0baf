// Command arraytrack-server is the central ArrayTrack backend (Figure
// 1, right half): it accepts capture records from AP nodes over TCP,
// groups them per client, localizes once a quorum of APs has reported,
// and streams both the raw fix and the Kalman-smoothed track for every
// client.
//
// AP identities 1–6 map to the simulated testbed's sites, so the server
// knows each reporting array's position and orientation.
//
// Steady-state serving is predictive by default: a client with a live
// Kalman track is localized inside its prediction's gate region and
// verified, falling back to the full grid otherwise (the knob
// "predict_sigma": -1 restores unconditional full-grid serving). The
// scheduler is one FIFO with per-client admission quotas (the knob
// "client_quota", 16 by default), so a hostile flood cannot starve
// anyone.
//
//	arraytrack-server -listen :7100 -quorum 3
//
// The same binary scales out: each shard runs a normal backend (on a
// TCP or unix:/path socket, tagged with -shard i/N), and one -router
// process fans AP traffic out to the shards by hashed client ID,
// migrating tracks losslessly when the map grows:
//
//	arraytrack-server -shard 0/2 -listen unix:/run/at/s0.sock -http :9100 ...
//	arraytrack-server -shard 1/2 -listen unix:/run/at/s1.sock -http :9101 ...
//	arraytrack-server -router -listen :7100 -http :9099 \
//	    -shards unix:/run/at/s0.sock,unix:/run/at/s1.sock \
//	    -shard-ops http://127.0.0.1:9100,http://127.0.0.1:9101 -map-shards 1
//	curl -X POST localhost:9099/cluster/rebalance -d '{"version":2,"shards":2}'
//
// The server runs like a service: SIGINT/SIGTERM triggers a graceful
// drain (stop accepting, flush every in-flight job, write the -snapshot
// tracker image, exit 0) and -restore resumes those tracks
// bit-identically on the next start. -http serves Prometheus metrics,
// per-client track introspection, and the hot-reloadable knobs. The
// knobs document (ops.Knobs) is the one way to set the six live values
// — cache budgets, client quota, predictive sigma, track TTL and shed
// bound: -knobs names a JSON file applied before any listener serves
// (unreadable or refused: exit non-zero) and re-applied on SIGHUP
// (refused: logged, serving continues), and POST /knobs takes the same
// document. The series /metrics exposes are also logged every
// -stats-every interval and, on Unix, on demand with SIGUSR1.
// Pair with cmd/arraytrack-ap.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/music"
	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/testbed"
)

// applyKnobsFile loads a JSON ops.Knobs document and pushes it onto
// the serving process; used at startup and on SIGHUP. A file that
// cannot be read, or a document ops refuses (an unknown key included),
// applies nothing and returns the error.
func applyKnobsFile(srv *ops.Server, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("knobs: %w", err)
	}
	defer f.Close()
	k, err := ops.DecodeKnobs(f)
	if err != nil {
		return fmt.Errorf("knobs: parse %s: %w", path, err)
	}
	log.Printf("knobs: applied %v from %s", srv.Apply(k), path)
	return nil
}

// newEngine starts the engine at the live values every start begins
// from — client quota 16, predictive serving at DefaultPredictSigma,
// no shedding — until a knobs document changes them.
func newEngine(workers int, cfg core.Config, tracker *engine.Tracker) *engine.Engine {
	return engine.New(engine.Options{
		Workers:     workers,
		Config:      cfg,
		Tracker:     tracker,
		ClientQuota: 16,
		Predict:     true,
	})
}

// logStats logs every series /metrics exposes, one "name value" line
// each, without the exposition's HELP and TYPE comments.
func logStats(srv *ops.Server) {
	var b strings.Builder
	srv.WriteMetrics(&b)
	var series []string
	for _, line := range strings.Split(b.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series = append(series, line)
		}
	}
	log.Printf("stats:\n%s", strings.Join(series, "\n"))
}

// degradedSweep resolves -degraded-after as server.Backend does (≤ 0
// means server.DefaultDegradedAfter) and returns it with the janitor's
// sweep period: half the resolved age, never below a millisecond, so a
// tiny age cannot turn the sweep into a busy loop.
func degradedSweep(after time.Duration) (resolved, period time.Duration) {
	if after <= 0 {
		after = server.DefaultDegradedAfter
	}
	return after, max(after/2, time.Millisecond)
}

func main() {
	listen := flag.String("listen", ":7100", "listen address (host:port TCP, or unix:/path/to.sock)")
	quorum := flag.Int("quorum", 3, "distinct APs required before localizing")
	shardFlag := flag.String("shard", "",
		"serve as shard i of an N-shard cluster, e.g. -shard 0/4 (informational: sharding is enforced by the router)")
	routerMode := flag.Bool("router", false,
		"run as the cluster router instead of a backend: fan AP traffic out to -shards by client ID")
	rf := registerRouterFlags()
	window := flag.Duration("window", time.Second, "capture grouping window")
	workers := flag.Int("workers", 0, "localization worker pool size (0 = GOMAXPROCS)")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "period for the stats log line (0 disables)")
	httpAddr := flag.String("http", "",
		"ops HTTP listen address for /metrics, /clients, /knobs, /healthz (empty disables)")
	snapshotPath := flag.String("snapshot", "",
		"write the tracker snapshot here after the graceful drain (empty disables)")
	restorePath := flag.String("restore", "",
		"restore tracker state from this snapshot at startup (empty disables)")
	knobsPath := flag.String("knobs", "",
		"JSON knobs file (cache budgets, client quota, predict sigma, track TTL, shed bound) applied before serving and re-applied on SIGHUP (empty disables)")
	udpAddr := flag.String("udp", "",
		"also accept batch-frame capture datagrams on this UDP address (empty disables)")
	degradedQuorum := flag.Int("degraded-quorum", 0,
		"serve a stuck group once it has this many distinct APs (< quorum) for -degraded-after; fixes are flagged degraded (0 = strict quorum only)")
	degradedAfter := flag.Duration("degraded-after", server.DefaultDegradedAfter,
		"stuck-group age that triggers a degraded flush (with -degraded-quorum)")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second,
		"reap an AP connection after this long without a byte (0 disables)")
	apErrorBudget := flag.Int("ap-error-budget", 0,
		"connection/decode errors within 10s that quarantine an AP for 30s (0 disables quarantine)")
	flag.Parse()

	if *routerMode {
		ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals()...)
		defer stop()
		if err := runRouter(ctx, *listen, *httpAddr, rf); err != nil {
			log.Fatal(err)
		}
		return
	}
	shardIdx, shardN := 0, 1
	if *shardFlag != "" {
		var err error
		if shardIdx, shardN, err = parseShardFlag(*shardFlag); err != nil {
			log.Fatal(err)
		}
	}

	tb := testbed.New()
	capOpt := testbed.DefaultCaptureOptions()
	cfg := core.DefaultConfig(tb.Wavelength)

	tracker := engine.NewTracker(engine.TrackerOptions{})
	if *restorePath != "" {
		snap, err := ops.Load(*restorePath)
		if err != nil {
			log.Fatal(err)
		}
		n := tracker.Restore(snap.Tracks)
		log.Printf("restored %d/%d client tracks from %s (saved %s)",
			n, len(snap.Tracks), *restorePath, time.Unix(0, snap.SavedUnixNano).Format(time.RFC3339))
	}
	eng := newEngine(*workers, cfg, tracker)
	defer eng.Close()

	sink := &engine.CaptureSink{
		Engine: eng,
		Resolve: func(apID uint32) *core.AP {
			idx := int(apID) - 1
			if idx < 0 || idx >= len(tb.Sites) {
				log.Printf("unknown AP id %d, skipping", apID)
				return nil
			}
			return &core.AP{Array: tb.NewArray(tb.Sites[idx], capOpt)}
		},
		Min: tb.Plan.Min,
		Max: tb.Plan.Max,
		OnResult: func(r engine.Result) {
			if r.Err != nil {
				log.Printf("client %d: localization failed: %v", r.ClientID, r.Err)
				return
			}
			how := "full-grid"
			if r.Predicted {
				how = "track-guided"
			}
			if r.Degraded {
				how += ", degraded"
			}
			fmt.Printf("client %d located at %v  (%d APs, %s)\n",
				r.ClientID, r.Pos, r.APs, how)
			u := r.Track
			if u == nil {
				return
			}
			status := "tracked"
			if !u.Accepted {
				status = "gated"
			}
			fmt.Printf("client %d %s at (%.2f,%.2f) vel (%.2f,%.2f) m/s  raw (%.2f,%.2f)\n",
				u.ClientID, status, u.Smoothed.X, u.Smoothed.Y, u.Vel.X, u.Vel.Y, u.Raw.X, u.Raw.Y)
		},
	}
	backend := server.NewBackendDispatcher(*quorum, *window, sink)
	backend.IdleTimeout = *idleTimeout
	backend.DegradedQuorum = *degradedQuorum
	degradedAfterUsed, sweepEvery := degradedSweep(*degradedAfter)
	backend.DegradedAfter = degradedAfterUsed
	backend.ErrorBudget = *apErrorBudget

	// The knobs file lands before any listener exists, so the first
	// capture is served at the file's values; a bad file is a bad
	// start, like a bad flag.
	opsSrv := &ops.Server{Engine: eng, Backend: backend, Sink: sink}
	if *knobsPath != "" {
		if err := applyKnobsFile(opsSrv, *knobsPath); err != nil {
			log.Fatal(err)
		}
	}

	l, err := listenOn(*listen)
	if err != nil {
		log.Fatal(err)
	}
	if shardN > 1 {
		log.Printf("ArrayTrack shard %d/%d listening on %s (quorum %d)", shardIdx, shardN, l.Addr(), *quorum)
	} else {
		log.Printf("ArrayTrack server listening on %s (quorum %d)", l.Addr(), *quorum)
	}
	log.Printf("kernels: %s", music.Kernels())

	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals()...)
	defer stop()

	if *udpAddr != "" {
		pc, err := net.ListenPacket("udp", *udpAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("UDP capture feed on %s (batch-frame datagrams)", pc.LocalAddr())
		go func() {
			if err := backend.ServeUDP(ctx, pc); err != nil && ctx.Err() == nil {
				log.Printf("udp feed: %v", err)
			}
		}()
	}

	// The degraded-serving janitor: without it, a group stuck below
	// quorum would only be examined when its client's next capture
	// arrives — exactly what never happens once an AP dies.
	if *degradedQuorum > 0 {
		go func() {
			t := time.NewTicker(sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if flushed, dropped := backend.Sweep(); flushed > 0 || dropped > 0 {
						log.Printf("sweep: %d degraded flushes, %d stale groups dropped", flushed, dropped)
					}
				}
			}
		}()
		log.Printf("degraded serving: quorum %d after %v (sweep every %v)",
			*degradedQuorum, degradedAfterUsed, sweepEvery)
	}

	if *knobsPath != "" {
		notifyReloadSignal(ctx, func() {
			if err := applyKnobsFile(opsSrv, *knobsPath); err != nil {
				log.Print(err)
			}
		})
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		httpSrv = &http.Server{Handler: opsSrv.Handler()}
		log.Printf("ops endpoint on http://%s (/metrics /clients /knobs /healthz /debug/pprof/)", hl.Addr())
		go func() {
			if err := httpSrv.Serve(hl); err != nil && err != http.ErrServerClosed {
				log.Printf("ops endpoint: %v", err)
			}
		}()
	}

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					logStats(opsSrv)
				}
			}
		}()
	}
	notifyStatsSignal(ctx, func() { logStats(opsSrv) })

	if err := backend.Serve(ctx, l); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}

	// Graceful drain: the listener is already closed (Serve returned),
	// so no new captures arrive; Drain flushes every admitted job
	// through the scheduler and waits for the workers, leaving the
	// tracker quiescent for the snapshot.
	log.Print("draining: flushing in-flight jobs")
	eng.Drain()
	if *snapshotPath != "" {
		snap := ops.NewSnapshot(tracker, time.Now().UnixNano())
		if err := ops.Save(*snapshotPath, snap); err != nil {
			log.Fatal(err)
		}
		log.Printf("snapshot: %d client tracks written to %s", len(snap.Tracks), *snapshotPath)
	}
	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		httpSrv.Shutdown(shutCtx)
		cancel()
	}
	log.Print("drained, exiting")
}
