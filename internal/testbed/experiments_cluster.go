package testbed

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// ClusterOptions sizes the sharded-cluster experiment: bit-identical
// fan-in versus a single-backend control and a zero-loss mid-walk (and
// mid-burst) shard migration.
type ClusterOptions struct {
	// Steps is the number of fixes along the walk; MigrateStep is the
	// step during which the cluster grows from 1 to 2 shards — after
	// half the step's AP frames have been fed, so the migration moves a
	// below-quorum pending group as well as the live track.
	Steps, MigrateStep int
	// Dt is the seconds between fixes, Speed the walk speed in m/s.
	Dt, Speed float64
	// Sites indexes the AP sites that hear the clients.
	Sites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// GridCell is the synthesis pitch.
	GridCell float64
	// Tracker configures the Kalman layer (identically everywhere).
	Tracker engine.TrackerOptions
	// Seed drives the channel noise.
	Seed int64
}

// DefaultClusterOptions walks the corridor for 12 fixes, growing the
// cluster mid-way through step 6.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Steps:       12,
		MigrateStep: 6,
		Dt:          1.0,
		Speed:       1.2,
		Sites:       []int{0, 1, 2, 3, 4, 5},
		Capture:     DefaultCaptureOptions(),
		GridCell:    0.25,
		Tracker:     engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3},
		Seed:        71,
	}
}

// ClusterResult is the machine-readable outcome of the cluster run.
type ClusterResult struct {
	// FanInMismatches counts smoothed positions from the static 2-shard
	// cluster that differ (at all) from the single-backend control.
	// Must be 0: the router splices the AP's sub-records verbatim.
	FanInMismatches int
	// StepMismatches counts positions from the migration run that
	// differ from the control. Must be 0: the handoff is invisible.
	StepMismatches int
	// TracksLost is how many clients lack a live track anywhere in the
	// cluster after the migration run. Must be 0.
	TracksLost int
	// RMSEDeltaCM is |control RMSE − migration-run RMSE| over the
	// walker's smoothed errors. Must be 0.
	RMSEDeltaCM float64
	// SmoothedRMSECM is the migration run's walker RMSE (context).
	SmoothedRMSECM float64
	// MovedClients/MovedTracks/MovedPending/HeldFlushed describe the
	// rebalance: clients that changed owner, Kalman tracks migrated,
	// buffered below-quorum captures re-routed, captures parked at the
	// router during the swap.
	MovedClients, MovedTracks, MovedPending, HeldFlushed int
	// WalkerMigrated reports the walker's track living on the gaining
	// shard and only there after the swap.
	WalkerMigrated bool
	// WorkspaceLeaks is the pooled ingest-workspace gauge delta across
	// the whole experiment. Must be 0.
	WorkspaceLeaks int64
}

// clusterHarness is one router-fronted cluster of in-process shards
// fed through a single synchronous pipe (sequential frames, so every
// run sees captures in the same order).
type clusterHarness struct {
	shards    []*cluster.LocalShard
	router    *cluster.Router
	feed      net.Conn
	routerErr chan error
	dir       string
}

func (tb *Testbed) startCluster(nShards, mapShards, quorum int, eopt engine.Options,
	trOpt engine.TrackerOptions, resolve func(uint32) *core.AP, onResult func(engine.Result)) (*clusterHarness, error) {
	dir, err := os.MkdirTemp("", "atcluster")
	if err != nil {
		return nil, err
	}
	h := &clusterHarness{routerErr: make(chan error, 1), dir: dir}
	views := make([]cluster.Shard, 0, nShards)
	for i := 0; i < nShards; i++ {
		s, err := cluster.NewLocalShard(cluster.LocalShardOptions{
			SocketPath:     filepath.Join(dir, fmt.Sprintf("s%d.sock", i)),
			Quorum:         quorum,
			Window:         time.Second,
			Engine:         eopt,
			TrackerOptions: trOpt,
			Resolve:        resolve,
			Min:            tb.Plan.Min,
			Max:            tb.Plan.Max,
			OnResult:       onResult,
		})
		if err != nil {
			h.close()
			return nil, err
		}
		h.shards = append(h.shards, s)
		views = append(views, s.Shard())
	}
	m, err := cluster.NewShardMap(1, mapShards, 0)
	if err != nil {
		h.close()
		return nil, err
	}
	if h.router, err = cluster.NewRouter(m, views); err != nil {
		h.close()
		return nil, err
	}
	pr, pw := net.Pipe()
	h.feed = pw
	go func() { h.routerErr <- h.router.ServeConn(pr) }()
	return h, nil
}

func (h *clusterHarness) close() {
	if h.feed != nil {
		h.feed.Close()
		<-h.routerErr
	}
	for _, s := range h.shards {
		s.Close()
	}
	os.RemoveAll(h.dir)
}

// writeFrames feeds pre-encoded v3 frames down a connection with a
// deadline, so a wedged consumer fails the run instead of hanging it.
func writeFrames(conn net.Conn, frames ...[]byte) error {
	for _, f := range frames {
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// collectFixes drains exactly want results, keyed by client. Each step
// produces one quorum flush per client, so want is deterministic.
func collectFixes(results chan engine.Result, want int) (map[uint32]engine.Result, error) {
	out := make(map[uint32]engine.Result, want)
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	for k := 0; k < want; k++ {
		select {
		case r := <-results:
			if r.Err != nil {
				return nil, fmt.Errorf("testbed: cluster fix for client %d: %w", r.ClientID, r.Err)
			}
			out[r.ClientID] = r
		case <-deadline.C:
			return nil, fmt.Errorf("testbed: cluster run timed out waiting for fix %d/%d", k+1, want)
		}
	}
	return out, nil
}

// RunCluster regenerates the sharded-cluster claims against a
// single-backend control fed the identical serialized frames:
//
//   - fan-in bit-identity: a router fanning one AP stream out to two
//     static shards produces, fix for fix, exactly the control's
//     smoothed positions (the router splices the AP's sub-records
//     verbatim, so a shard decodes the bytes the AP sent);
//   - zero-loss handoff: growing 1→2 shards mid-walk — and mid-burst,
//     with a below-quorum pending group buffered — moves the walker's
//     pending captures and Kalman track to the new shard with no fix
//     lost and an RMSE delta of exactly zero.
func (tb *Testbed) RunCluster(opt ClusterOptions) (*Report, *ClusterResult, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.GridCell
	base := time.Unix(1700000000, 0)
	wsBaseline := server.LeasedIngestWorkspaces()

	res := &ClusterResult{}
	r := &Report{ID: "cluster", Title: "sharded cluster: fan-in bit-identity, zero-loss mid-walk handoff"}

	// Pick client IDs by where consistent hashing sends them when the
	// cluster grows to 2 shards: the walker moves to the new shard, the
	// stationary client stays — so the migration moves a track that is
	// actively walking.
	m2, err := cluster.NewShardMap(2, 2, 0)
	if err != nil {
		return nil, nil, err
	}
	var walkerID, statID uint32
	for id := uint32(1); walkerID == 0 || statID == 0; id++ {
		if m2.Owner(id) == 1 && walkerID == 0 {
			walkerID = id
		}
		if m2.Owner(id) == 0 && statID == 0 {
			statID = id
		}
	}
	clients := []uint32{walkerID, statID}
	truthAt := func(i int) map[uint32]geom.Point {
		return map[uint32]geom.Point{
			walkerID: trackingTruth(TrackingOptions{Dt: opt.Dt, Speed: opt.Speed}, i),
			statID:   geom.Pt(33, 3),
		}
	}
	stepTime := func(i int) time.Time {
		return base.Add(time.Duration(float64(i) * opt.Dt * float64(time.Second)))
	}

	// Serialize every step once — one frame per AP carrying
	// both clients' captures — so all three runs decode identical
	// bytes and any divergence is the cluster path's fault.
	aps := tb.APsFor(opt.Sites, opt.Capture)
	apByID := make(map[uint32]*core.AP, len(opt.Sites))
	for si, s := range opt.Sites {
		apByID[uint32(s+1)] = aps[si]
	}
	resolve := func(apID uint32) *core.AP { return apByID[apID] }
	seqs := map[uint32]uint32{}
	stepFrames := make([][][]byte, opt.Steps) // [step][site]frame
	for i := 0; i < opt.Steps; i++ {
		truth := truthAt(i)
		frames := make([][]byte, len(opt.Sites))
		for si, s := range opt.Sites {
			apID := uint32(s + 1)
			var caps []server.Capture
			for _, id := range clients {
				for _, fc := range Cut(tb.CaptureClient(truth[id], tb.Sites[s], opt.Capture, rng)) {
					seqs[apID]++
					caps = append(caps, server.Capture{
						APID: apID, ClientID: id, Seq: seqs[apID],
						Timestamp: stepTime(i), Streams: fc.Streams,
					})
				}
			}
			f, err := server.AppendBatch(nil, caps)
			if err != nil {
				return nil, nil, err
			}
			frames[si] = f
		}
		stepFrames[i] = frames
	}

	// All trackers run on the simulated clock (the walk replays
	// 2023-era timestamps); engine workers read it concurrently, so it
	// advances atomically.
	var simNow atomic.Int64
	simNow.Store(base.UnixNano())
	trOpt := opt.Tracker
	trOpt.Now = func() time.Time { return time.Unix(0, simNow.Load()) }

	// A flush needs every AP: quorum counts distinct APs, and the last
	// AP's burst is absorbed into the flush it completes.
	quorum := len(opt.Sites)
	eopt := engine.Options{Config: cfg}

	// runWalk feeds the steps and records each client's smoothed
	// positions; migrate, when non-nil, runs mid-step MigrateStep after
	// half the AP frames.
	runWalk := func(feed net.Conn, results chan engine.Result, migrate func() error) (map[uint32][]geom.Point, []float64, error) {
		smoothed := map[uint32][]geom.Point{}
		var walkErrs []float64
		for i := 0; i < opt.Steps; i++ {
			simNow.Store(stepTime(i).UnixNano())
			frames := stepFrames[i]
			if migrate != nil && i == opt.MigrateStep {
				if err := writeFrames(feed, frames[:len(frames)/2]...); err != nil {
					return nil, nil, err
				}
				if err := migrate(); err != nil {
					return nil, nil, err
				}
				if err := writeFrames(feed, frames[len(frames)/2:]...); err != nil {
					return nil, nil, err
				}
			} else if err := writeFrames(feed, frames...); err != nil {
				return nil, nil, err
			}
			fixes, err := collectFixes(results, len(clients))
			if err != nil {
				return nil, nil, err
			}
			for _, id := range clients {
				out, ok := fixes[id]
				if !ok || out.Track == nil {
					return nil, nil, fmt.Errorf("testbed: step %d: no tracked fix for client %d", i, id)
				}
				smoothed[id] = append(smoothed[id], out.Track.Smoothed)
				if id == walkerID {
					walkErrs = append(walkErrs, out.Track.Smoothed.Dist(truthAt(i)[walkerID])*100)
				}
			}
		}
		return smoothed, walkErrs, nil
	}

	// Control: one backend+engine fed directly, no router.
	var ctrlSmoothed map[uint32][]geom.Point
	var ctrlErrs []float64
	{
		results := make(chan engine.Result, 16)
		onResult := func(r engine.Result) { results <- r }
		dir, err := os.MkdirTemp("", "atclusterctl")
		if err != nil {
			return nil, nil, err
		}
		s, err := cluster.NewLocalShard(cluster.LocalShardOptions{
			SocketPath: filepath.Join(dir, "ctl.sock"),
			Quorum:     quorum, Window: time.Second,
			Engine: eopt, TrackerOptions: trOpt,
			Resolve: resolve, Min: tb.Plan.Min, Max: tb.Plan.Max,
			OnResult: onResult,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		ctrlSmoothed, ctrlErrs, err = runWalk(s.Conn(), results, nil)
		s.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, err
		}
	}

	// Static fan-in: two shards from the start, same frames through the
	// router. Every smoothed position must equal the control's exactly.
	{
		results := make(chan engine.Result, 16)
		h, err := tb.startCluster(2, 2, quorum, eopt, trOpt, resolve,
			func(r engine.Result) { results <- r })
		if err != nil {
			return nil, nil, err
		}
		fanSmoothed, _, err := runWalk(h.feed, results, nil)
		h.close()
		if err != nil {
			return nil, nil, err
		}
		for _, id := range clients {
			for i := range fanSmoothed[id] {
				if fanSmoothed[id][i] != ctrlSmoothed[id][i] {
					res.FanInMismatches++
				}
			}
		}
	}

	// Migration: start on 1 shard, grow to 2 mid-step. The walker's
	// half-fed pending group and live track both move.
	var migSmoothed map[uint32][]geom.Point
	var migErrs []float64
	{
		results := make(chan engine.Result, 16)
		h, err := tb.startCluster(2, 1, quorum, eopt, trOpt, resolve,
			func(r engine.Result) { results <- r })
		if err != nil {
			return nil, nil, err
		}
		capsPerStep := len(clients) * opt.Capture.Frames * len(opt.Sites)
		halfCaps := len(clients) * opt.Capture.Frames * (len(opt.Sites) / 2)
		migrate := func() error {
			// Let the half-step settle on shard 0 so the rebalance
			// deterministically finds the walker's pending group.
			wantIngested := uint64(opt.MigrateStep*capsPerStep + halfCaps)
			deadline := time.Now().Add(30 * time.Second)
			for {
				n, err := h.shards[0].Ingested()
				if err != nil {
					return err
				}
				if n >= wantIngested {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("testbed: shard 0 ingested %d of %d before migration", n, wantIngested)
				}
				time.Sleep(100 * time.Microsecond)
			}
			st, err := h.router.Rebalance(m2)
			if err != nil {
				return err
			}
			res.MovedClients = st.MovedClients
			res.MovedTracks = st.MovedTracks
			res.MovedPending = st.MovedPending
			res.HeldFlushed = st.HeldFlushed
			return nil
		}
		migSmoothed, migErrs, err = runWalk(h.feed, results, migrate)
		if err != nil {
			h.close()
			return nil, nil, err
		}
		// The walker's track must live on the gaining shard and only
		// there; cluster-wide, no client may have lost its track.
		_, onNew := h.shards[1].Tracker.Snapshot(walkerID)
		_, onOld := h.shards[0].Tracker.Snapshot(walkerID)
		res.WalkerMigrated = onNew && !onOld
		for _, id := range clients {
			found := false
			for _, s := range h.shards {
				if _, ok := s.Tracker.Snapshot(id); ok {
					found = true
				}
			}
			if !found {
				res.TracksLost++
			}
		}
		h.close()
	}

	for _, id := range clients {
		for i := range migSmoothed[id] {
			if migSmoothed[id][i] != ctrlSmoothed[id][i] {
				res.StepMismatches++
			}
		}
	}
	ctrlRMSE, migRMSE := rmseSqrt(ctrlErrs), rmseSqrt(migErrs)
	res.SmoothedRMSECM = migRMSE
	res.RMSEDeltaCM = migRMSE - ctrlRMSE
	if res.RMSEDeltaCM < 0 {
		res.RMSEDeltaCM = -res.RMSEDeltaCM
	}

	res.WorkspaceLeaks = server.LeasedIngestWorkspaces() - wsBaseline

	r.Addf("clients: walker %d (moves to shard 1), stationary %d (stays on shard 0)", walkerID, statID)
	r.Addf("%4s  %-14s %-14s %-14s  %s", "step", "truth", "control", "migrated", "")
	for i := 0; i < opt.Steps; i++ {
		truth := truthAt(i)[walkerID]
		c, g := ctrlSmoothed[walkerID][i], migSmoothed[walkerID][i]
		mark := ""
		if i == opt.MigrateStep {
			mark = "<- grew 1→2 shards mid-step"
		}
		r.Addf("%4d  (%5.1f,%4.1f)   (%5.1f,%4.1f)   (%5.1f,%4.1f)  %s",
			i+1, truth.X, truth.Y, c.X, c.Y, g.X, g.Y, mark)
	}
	r.Addf("")
	r.Addf("rebalance: %d client moved, %d track migrated, %d pending captures re-routed, %d held at router",
		res.MovedClients, res.MovedTracks, res.MovedPending, res.HeldFlushed)
	r.Addf("walker track on gaining shard only: %v; tracks lost: %d", res.WalkerMigrated, res.TracksLost)
	r.Addf("fan-in mismatches (static 2-shard vs control): %d", res.FanInMismatches)
	r.Addf("migration mismatches vs control: %d", res.StepMismatches)
	r.Addf("walker smoothed RMSE: control %.1fcm, migrated %.1fcm (delta %.3fcm)",
		ctrlRMSE, migRMSE, res.RMSEDeltaCM)
	r.Addf("pooled ingest-workspace leak delta: %d", res.WorkspaceLeaks)
	return r, res, nil
}
