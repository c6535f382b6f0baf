// The handoff test lives in an external package so it can drive the
// cluster with testbed-generated captures (testbed imports cluster for
// its experiment; cluster_test importing testbed closes no cycle).
package cluster_test

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/testbed"
)

// TestRebalanceUnderConcurrentIngest grows a live cluster 1→2 shards
// while a feeder keeps streaming capture bursts for every client —
// the -race exercise of the router's hold/forward/flush machinery.
// Afterwards: every admitted flush completed (no fix lost), every
// moved client's track lives on its new owner and only there, and the
// pooled ingest-workspace gauge is back to baseline (no leaked
// captures anywhere in the handoff). The same run is made twice,
// changing only the transport: the router reaches each shard's Node
// in-process, then through HTTPShard and ServeControl.
func TestRebalanceUnderConcurrentIngest(t *testing.T) {
	tb := testbed.New()
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 1.0 // coarse: this test is about concurrency, not accuracy
	base := time.Unix(1700000000, 0)

	sites := []int{0, 3}
	capOpt := testbed.DefaultCaptureOptions()
	capOpt.Frames = 1
	quorum := len(sites)
	aps := tb.APsFor(sites, capOpt)
	apByID := map[uint32]*core.AP{}
	for si, s := range sites {
		apByID[uint32(s+1)] = aps[si]
	}

	const nClients, rounds = 8, 12
	next, err := cluster.NewShardMap(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pick half the clients from each side of the grown map, so the
	// swap is guaranteed to move some and keep others.
	var clients []uint32
	byOwner := map[int]int{}
	for id := uint32(1); len(clients) < nClients; id++ {
		if o := next.Owner(id); byOwner[o] < nClients/2 {
			byOwner[o]++
			clients = append(clients, id)
		}
	}

	// Pre-serialize the feed: rounds × APs frames, every client heard
	// by both APs each round, so each round is one flush per client.
	rng := rand.New(rand.NewSource(7))
	seqs := map[uint32]uint32{}
	var frames [][]byte
	for round := 0; round < rounds; round++ {
		at := base.Add(time.Duration(round) * time.Second)
		for _, s := range sites {
			apID := uint32(s + 1)
			var caps []server.Capture
			for ci, id := range clients {
				pos := geom.Pt(4+float64(ci)*4, 6)
				for _, fc := range testbed.Cut(tb.CaptureClient(pos, tb.Sites[s], capOpt, rng)) {
					seqs[apID]++
					caps = append(caps, server.Capture{
						APID: apID, ClientID: id, Seq: seqs[apID],
						Timestamp: at, Streams: fc.Streams,
					})
				}
			}
			f, err := server.AppendBatch(nil, caps)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
	}
	wantFixes := nClients * rounds

	// handoff runs the feed through a router over two live shards and
	// swaps the map mid-stream. overHTTP puts each shard's Node behind
	// an httptest server, reached through HTTPShard.
	handoff := func(t *testing.T, overHTTP bool) {
		wsBaseline := server.LeasedIngestWorkspaces()
		// Two live shards, routed by a 1-shard map until the swap.
		dir, err := os.MkdirTemp("", "athandoff")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		results := make(chan engine.Result, wantFixes+16)
		trOpt := engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3,
			Now: func() time.Time { return base }}
		var shards []*cluster.LocalShard
		var views []cluster.Shard
		for i := 0; i < 2; i++ {
			s, err := cluster.NewLocalShard(cluster.LocalShardOptions{
				SocketPath: filepath.Join(dir, fmt.Sprintf("s%d.sock", i)),
				Quorum:     quorum, Window: time.Second,
				Engine:         engine.Options{Workers: 2, Queue: wantFixes + 16, Config: cfg},
				TrackerOptions: trOpt,
				Resolve:        func(apID uint32) *core.AP { return apByID[apID] },
				Min:            tb.Plan.Min, Max: tb.Plan.Max,
				OnResult: func(r engine.Result) { results <- r },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			shards = append(shards, s)
			view := s.Shard()
			if overHTTP {
				mux := http.NewServeMux()
				cluster.ServeControl(mux, view.Ctl)
				srv := httptest.NewServer(mux)
				defer srv.Close()
				view.Ctl = &cluster.HTTPShard{Base: srv.URL, Client: srv.Client()}
			}
			views = append(views, view)
		}
		initial, err := cluster.NewShardMap(1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		router, err := cluster.NewRouter(initial, views)
		if err != nil {
			t.Fatal(err)
		}
		pr, pw := net.Pipe()
		routerErr := make(chan error, 1)
		go func() { routerErr <- router.ServeConn(pr) }()

		// Feeder streams every frame flat out while the main goroutine
		// swaps the map mid-stream.
		feedErr := make(chan error, 1)
		go func() {
			for _, f := range frames {
				pw.SetWriteDeadline(time.Now().Add(30 * time.Second))
				if _, err := pw.Write(f); err != nil {
					feedErr <- err
					return
				}
			}
			feedErr <- nil
		}()

		// Let some traffic land, then rebalance under fire.
		deadline := time.Now().Add(30 * time.Second)
		for shards[0].Engine.Stats().Fixes < uint64(nClients) {
			if time.Now().After(deadline) {
				t.Fatal("no fixes before rebalance")
			}
			time.Sleep(time.Millisecond)
		}
		st, err := router.Rebalance(next)
		if err != nil {
			t.Fatalf("rebalance under concurrent ingest: %v", err)
		}
		if st.MovedClients == 0 || st.MovedTracks == 0 {
			t.Fatalf("rebalance moved %d clients / %d tracks, want both > 0", st.MovedClients, st.MovedTracks)
		}

		if err := <-feedErr; err != nil {
			t.Fatalf("feeder: %v", err)
		}
		// Admitted == completed: every flush the cluster admitted produces
		// exactly one result, across the swap.
		for i := 0; i < wantFixes; i++ {
			select {
			case r := <-results:
				if r.Err != nil {
					t.Fatalf("fix %d failed for client %d: %v", i, r.ClientID, r.Err)
				}
			case <-time.After(20 * time.Second):
				for si, s := range shards {
					st := s.Engine.Stats()
					t.Logf("shard %d: ingested %d, pending clients %v, engine submitted %d completed %d fixes %d failures %d rejected %d",
						si, s.Backend.IngestedCaptures(), s.Backend.PendingClientIDs(),
						st.Submitted, st.Completed, st.Fixes, st.Failures, st.Rejected)
				}
				t.Logf("router: %+v", router.Stats())
				t.Fatalf("received %d of %d fixes after the swap", i, wantFixes)
			}
		}

		// Every moved client's track must be restorable on its new owner —
		// and gone from the losing shard.
		for _, id := range clients {
			owner := next.Owner(id)
			if _, ok := shards[owner].Tracker.Snapshot(id); !ok {
				t.Errorf("client %d has no track on its owner shard %d", id, owner)
			}
			if _, ok := shards[1-owner].Tracker.Snapshot(id); ok {
				t.Errorf("client %d still has a track on shard %d after the swap", id, 1-owner)
			}
		}

		// Tear down the wire — router first, then the shards, so no reader
		// goroutine still holds the workspace it leased for its next (never
		// arriving) frame — then check the pool gauge: every capture the
		// handoff touched (held, extracted, re-routed) went back.
		pw.Close()
		if err := <-routerErr; err != nil {
			t.Fatalf("router: %v", err)
		}
		for _, s := range shards {
			s.Engine.Drain()
			s.Close()
		}
		if leaked := server.LeasedIngestWorkspaces() - wsBaseline; leaked != 0 {
			t.Fatalf("pooled ingest workspaces leaked across the handoff: %d", leaked)
		}
	}
	t.Run("in-process", func(t *testing.T) { handoff(t, false) })
	t.Run("http", func(t *testing.T) { handoff(t, true) })
}
