package testbed

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// ClusterOptions sizes the sharded-cluster experiment: bit-identical
// fan-in versus a single-backend control and a zero-loss mid-walk (and
// mid-burst) shard migration. The cluster grows from 1 to 2 shards
// during step Steps/2, after half the step's AP frames have been fed,
// so the migration moves a below-quorum pending group as well as the
// live track.
type ClusterOptions struct {
	// Steps is the number of fixes along the walk.
	Steps int
	// Sites indexes the AP sites that hear the clients.
	Sites []int
}

// DefaultClusterOptions walks the corridor for 12 fixes, growing the
// cluster mid-way through step 7; fast walks 8 fixes heard by four
// APs.
func DefaultClusterOptions(fast bool) ClusterOptions {
	if fast {
		return ClusterOptions{Steps: 8, Sites: []int{0, 1, 3, 5}}
	}
	return ClusterOptions{Steps: 12, Sites: []int{0, 1, 2, 3, 4, 5}}
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

	served *trial
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
	wsBaseline := server.LeasedIngestWorkspaces()
	res := &ClusterResult{}

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
	w := tb.newWalk(walkShape{
		steps: opt.Steps, capture: DefaultCaptureOptions(), gridCell: 0.25, tracker: drillTracker, seed: 71,
	}, walkClient{walkerID, opt.Sites}, walkClient{statID, opt.Sites})

	// Serialize every step once — one frame per AP carrying both
	// clients' captures — so all three runs decode identical bytes.
	aps := tb.APsFor(opt.Sites, w.capture)
	apByID := make(map[uint32]*core.AP, len(opt.Sites))
	for s, site := range opt.Sites {
		apByID[uint32(site+1)] = aps[s]
	}
	resolve := func(apID uint32) *core.AP { return apByID[apID] }
	seqs := map[uint32]uint32{}
	stepFrames := make([][][]byte, opt.Steps) // [step][site]frame
	for i := range stepFrames {
		stepFrames[i] = make([][]byte, len(opt.Sites))
		for s, site := range opt.Sites {
			apID := uint32(site + 1)
			var caps []server.Capture
			for c, cl := range w.clients {
				for _, fc := range w.frames[i][c][s] {
					seqs[apID]++
					caps = append(caps, server.Capture{
						APID: apID, ClientID: cl.id, Seq: seqs[apID],
						Timestamp: w.stepTime(i), Streams: fc.Streams,
					})
				}
			}
			if stepFrames[i][s], err = server.AppendBatch(nil, caps); err != nil {
				return nil, nil, err
			}
		}
	}

	// A flush needs every AP: quorum counts distinct APs, and the last
	// AP's burst is absorbed into the flush it completes.
	quorum := len(opt.Sites)
	eopt := engine.Options{Config: w.cfg}

	// serveFrom feeds each step's frames down feed, skipping the ones a
	// mid-step perturbation already fed.
	fed := 0
	serveFrom := func(feed net.Conn, results chan engine.Result) func(int) (map[uint32]engine.Result, error) {
		return func(i int) (map[uint32]engine.Result, error) {
			frames := stepFrames[i][fed:]
			fed = 0
			if err := writeFrames(feed, frames...); err != nil {
				return nil, err
			}
			return collectFixes(results, len(w.clients))
		}
	}

	// Control: one backend+engine fed directly, no router.
	var ctrl *trial
	{
		results := make(chan engine.Result, 16)
		dir, err := os.MkdirTemp("", "atclusterctl")
		if err != nil {
			return nil, nil, err
		}
		s, err := cluster.NewLocalShard(cluster.LocalShardOptions{
			SocketPath: filepath.Join(dir, "ctl.sock"),
			Quorum:     quorum, Window: time.Second,
			Engine: eopt, TrackerOptions: w.trackerOptions(),
			Resolve: resolve, Min: tb.Plan.Min, Max: tb.Plan.Max,
			OnResult: func(r engine.Result) { results <- r },
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		ctrl, err = w.run(serveFrom(s.Conn(), results), nil)
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
		h, err := tb.startCluster(2, 2, quorum, eopt, w.trackerOptions(), resolve,
			func(r engine.Result) { results <- r })
		if err != nil {
			return nil, nil, err
		}
		fan, err := w.run(serveFrom(h.feed, results), nil)
		h.close()
		if err != nil {
			return nil, nil, err
		}
		res.FanInMismatches = mismatches(ctrl, fan, walkerID, statID)
	}

	// Migration: start on 1 shard, grow to 2 mid-step. The walker's
	// half-fed pending group and live track both move.
	results := make(chan engine.Result, 16)
	h, err := tb.startCluster(2, 1, quorum, eopt, w.trackerOptions(), resolve,
		func(r engine.Result) { results <- r })
	if err != nil {
		return nil, nil, err
	}
	migrate := func() error {
		fed = len(opt.Sites) / 2
		if err := writeFrames(h.feed, stepFrames[w.mid()][:fed]...); err != nil {
			return err
		}
		// Let the half-step settle on shard 0 so the rebalance
		// deterministically finds the walker's pending group.
		capsPerSite := len(w.clients) * w.capture.Frames
		wantIngested := uint64(capsPerSite * (w.mid()*len(opt.Sites) + fed))
		deadline := time.Now().Add(30 * time.Second)
		for {
			n := h.shards[0].Backend.IngestedCaptures()
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
	mig, err := w.run(serveFrom(h.feed, results), migrate)
	if err != nil {
		h.close()
		return nil, nil, err
	}
	res.served = mig
	// The walker's track must live on the gaining shard and only
	// there; cluster-wide, no client may have lost its track.
	_, onNew := h.shards[1].Tracker.Snapshot(walkerID)
	_, onOld := h.shards[0].Tracker.Snapshot(walkerID)
	res.WalkerMigrated = onNew && !onOld
	for _, cl := range w.clients {
		found := false
		for _, s := range h.shards {
			if _, ok := s.Tracker.Snapshot(cl.id); ok {
				found = true
			}
		}
		if !found {
			res.TracksLost++
		}
	}
	h.close()

	res.StepMismatches = mismatches(ctrl, mig, walkerID, statID)
	res.SmoothedRMSECM = mig.rmse(walkerID)
	res.RMSEDeltaCM = rmseDelta(ctrl, mig, walkerID)
	res.WorkspaceLeaks = server.LeasedIngestWorkspaces() - wsBaseline

	r := &Report{ID: "cluster", Title: "sharded cluster: fan-in bit-identity, zero-loss mid-walk handoff"}
	r.Addf("clients: walker %d (moves to shard 1), stationary %d (stays on shard 0)", walkerID, statID)
	w.table(r, ctrl, mig, "migrated", "<- grew 1→2 shards mid-step")
	r.Addf("")
	r.Addf("rebalance: %d client moved, %d track migrated, %d pending captures re-routed, %d held at router",
		res.MovedClients, res.MovedTracks, res.MovedPending, res.HeldFlushed)
	r.Addf("walker track on gaining shard only: %v; tracks lost: %d", res.WalkerMigrated, res.TracksLost)
	r.Addf("fan-in mismatches (static 2-shard vs control): %d", res.FanInMismatches)
	r.Addf("migration mismatches vs control: %d", res.StepMismatches)
	r.Addf("walker smoothed RMSE: control %.1fcm, migrated %.1fcm (delta %.3fcm)",
		ctrl.rmse(walkerID), res.SmoothedRMSECM, res.RMSEDeltaCM)
	r.Addf("pooled ingest-workspace leak delta: %d", res.WorkspaceLeaks)
	return r, res, nil
}
