package testbed

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ops"
	"repro/internal/server"
)

// ChaosOptions sizes the hostile-network experiment: an AP killed
// mid-walk (before step Steps/2) with degraded-quorum serving, a
// slow-loris connection against the idle reaper, chaos-corrupted
// frames against the AP error budget, and a burst against the engine's
// bounded queue.
type ChaosOptions struct {
	// Steps is the number of fixes along the walk.
	Steps int
	// Antennas is the AP row size.
	Antennas int
	// GridCell is the synthesis pitch.
	GridCell float64
}

// DefaultChaosOptions walks for 14 fixes and kills one of the walker's
// four APs after the 7th; fast walks 6 fixes on 4-antenna rows at a
// 0.5 m pitch.
func DefaultChaosOptions(fast bool) ChaosOptions {
	if fast {
		return ChaosOptions{Steps: 6, Antennas: 4, GridCell: 0.5}
	}
	return ChaosOptions{Steps: 14, Antennas: 6, GridCell: 0.25}
}

// The chaos drill's fixed factors. The walker's LAST site is the AP
// killed mid-walk; the survivor's sites exclude it, so the survivor's
// captures are identical with and without the fault — any RMSE
// difference is then the server's fault, not the channel's.
var (
	chaosWalkerSites   = []int{0, 1, 2, 3}
	chaosSurvivorSites = []int{0, 1, 2, 4}
)

const (
	chaosSeed = 71
	// chaosQuorum is every walker AP; one dead AP leaves a group at
	// chaosDegradedQuorum, flushed after chaosDegradedAfter.
	chaosQuorum         = 4
	chaosDegradedQuorum = 3
	chaosDegradedAfter  = 500 * time.Millisecond
	// chaosIdleTimeout is the read deadline the slow loris must be
	// reaped within twice of.
	chaosIdleTimeout = 250 * time.Millisecond
	// chaosErrorBudget is the corrupted-frame count that quarantines
	// an AP.
	chaosErrorBudget = 3
	// chaosBurstJobs is the overload burst one worker faces, six times
	// its default queue depth (see RunChaos phase D).
	chaosBurstJobs = 24
)

// ChaosResult is the machine-readable outcome of the chaos run.
type ChaosResult struct {
	// PostKillSteps is how many steps the walker survives on a
	// degraded quorum; DegradedFixes how many of those produced a fix
	// flagged Degraded end-to-end; MissedFixes how many produced no
	// fix at all. Want DegradedFixes == PostKillSteps, MissedFixes 0.
	PostKillSteps, DegradedFixes, MissedFixes int
	// SurvivorMismatches counts steps where the stationary client's
	// smoothed position differs (at all) between the fault run and the
	// no-fault control. RMSEDeltaCM is |control − fault| over its
	// smoothed errors. Both must be 0: a fault on one client's AP must
	// not perturb another client by a micrometre.
	SurvivorMismatches int
	RMSEDeltaCM        float64
	// WalkerRMSECM is the fault run's walker RMSE (context: the track
	// survives on three APs, it just gets noisier).
	WalkerRMSECM, SurvivorRMSECM float64
	// DegradedFlushes is the backend's counter after the fault run.
	DegradedFlushes uint64
	// LeakedWorkspaces is the pooled ingest-workspace gauge delta
	// across all phases. Must be 0.
	LeakedWorkspaces int64
	// HealthzOK and MetricsOK report the ops endpoints stayed up and
	// scrapeable on the degraded server.
	HealthzOK, MetricsOK bool
	// ReapedWithin is how long the slow-loris connection survived past
	// its half-written frame; ReapBound is the gate, twice the idle timeout.
	ReapedWithin, ReapBound time.Duration
	// DeadlineReaped is the backend's reap counter (want 1) and
	// HealthyConnSurvived that a concurrent well-behaved connection
	// kept ingesting after the reap.
	DeadlineReaped      uint64
	HealthyConnSurvived bool
	// Truncations and BitFlips count the chaos faults actually fired.
	Truncations, BitFlips uint64
	// Quarantines, QuarantineDropped and Readmitted cover the AP error
	// budget: corrupted frames quarantine the AP, its captures are
	// dropped, and cooldown expiry readmits it.
	Quarantines, QuarantineDropped uint64
	Readmitted                     bool
	// BurstFixes is how many burst jobs ended in a fix and
	// BurstFailures how many ended in an error or were refused. Want
	// BurstFixes == chaosBurstJobs and BurstFailures 0: the bounded
	// queue holds the burst back, it drops nothing.
	BurstFixes, BurstFailures int

	served *trial
}

// chaosCountDispatcher releases every flush and counts it.
type chaosCountDispatcher struct{ flushes atomic.Uint64 }

func (d *chaosCountDispatcher) Dispatch(_ uint32, caps []server.Capture) {
	d.flushes.Add(1)
	server.ReleaseAll(caps)
}

// chaosIngest pushes captures through the real wire: encode as one
// frame, decode into a pooled workspace, hand to the backend.
// Leaks in this path show up in the LeasedIngestWorkspaces gauge.
func chaosIngest(be *server.Backend, caps []server.Capture) error {
	frame, err := server.AppendBatch(nil, caps)
	if err != nil {
		return err
	}
	ws := server.GetIngestWorkspace()
	decoded, err := server.ReadFrameInto(bytes.NewReader(frame), ws)
	if err != nil {
		ws.Discard()
		return err
	}
	be.IngestBatch(decoded)
	return nil
}

// chaosSmallCap builds one tiny self-owned capture for the wire-level
// phases (reap, quarantine), where the spectra never run.
func chaosSmallCap(rng *rand.Rand, apID, clientID uint32) []server.Capture {
	streams := make([][]complex128, 4)
	for a := range streams {
		streams[a] = make([]complex128, 16)
		for s := range streams[a] {
			streams[a][s] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	return []server.Capture{{APID: apID, ClientID: clientID, Timestamp: walkBase, Streams: streams}}
}

// RunChaos regenerates the survive-a-hostile-network claim in four
// phases. (A) One of the walker's four APs dies mid-walk: with
// degraded-quorum serving, the walker keeps receiving fixes — every one
// flagged Degraded end-to-end — while the stationary client on the
// surviving APs produces *exactly* the trajectory of a no-fault
// control run, and no pooled ingest workspace leaks. (B) A slow-loris
// connection delivering half a frame (chaos truncation) is reaped
// within twice the idle timeout without disturbing a healthy
// connection. (C) Chaos bit-flipped frames burn through an AP's error
// budget: the AP is quarantined, its captures dropped, and cooldown
// expiry readmits it. (D) A burst six times the queue's depth against
// one worker is held back by Submit's back-pressure and ends in a fix
// for every job.
func (tb *Testbed) RunChaos(opt ChaosOptions) (*Report, *ChaosResult, error) {
	capture := DefaultCaptureOptions()
	capture.Antennas = opt.Antennas
	// One capture per AP per step: the quorum flush fires on the Nth
	// distinct AP's first capture, so multi-frame captures would strand
	// a trailing frame in the next group and blur the per-step
	// accounting this experiment asserts on.
	capture.Frames = 1
	w := tb.newWalk(walkShape{
		steps: opt.Steps, capture: capture, gridCell: opt.GridCell, tracker: drillTracker, seed: chaosSeed,
	}, walkClient{1, chaosWalkerSites}, walkClient{2, chaosSurvivorSites})
	leased0 := server.LeasedIngestWorkspaces()

	res := &ChaosResult{PostKillSteps: opt.Steps - w.mid(), ReapBound: 2 * chaosIdleTimeout}
	r := &Report{ID: "chaos", Title: "AP kill, slow-loris, corrupted frames, overload burst"}

	// ---- Phase A: AP kill mid-walk, degraded-quorum serving ----

	// APs by wire ID (site index + 1).
	killedSite := chaosWalkerSites[len(chaosWalkerSites)-1]
	killedAP := uint32(killedSite + 1)
	apByID := map[uint32]*core.AP{}
	for _, cl := range w.clients {
		for _, s := range cl.sites {
			apByID[uint32(s+1)] = &core.AP{Array: tb.NewArray(tb.Sites[s], capture)}
		}
	}

	type walkRun struct {
		*trial
		degradedFixes, missed int
		eng                   *engine.Engine
		be                    *server.Backend
		sink                  *engine.CaptureSink
	}
	runWalk := func(kill bool) (*walkRun, error) {
		out := &walkRun{}
		out.eng = engine.New(engine.Options{Config: w.cfg, Tracker: engine.NewTracker(w.trackerOptions())})
		results := make(chan engine.Result, 8)
		out.sink = &engine.CaptureSink{
			Engine:   out.eng,
			Resolve:  func(apID uint32) *core.AP { return apByID[apID] },
			Min:      tb.Plan.Min,
			Max:      tb.Plan.Max,
			OnResult: func(r engine.Result) { results <- r },
			Now:      w.clock,
		}
		out.be = server.NewBackendDispatcher(chaosQuorum, time.Second, out.sink)
		out.be.DegradedQuorum = chaosDegradedQuorum
		out.be.DegradedAfter = chaosDegradedAfter
		out.be.Now = w.clock

		dead := false
		serve := func(i int) (map[uint32]engine.Result, error) {
			// The survivor first, then the walker, each as one wire frame.
			for _, c := range []int{1, 0} {
				var caps []server.Capture
				for s, site := range w.clients[c].sites {
					if dead && c == 0 && uint32(site+1) == killedAP {
						continue
					}
					for _, f := range w.frames[i][c][s] {
						caps = append(caps, server.Capture{
							APID: uint32(site + 1), ClientID: w.clients[c].id, Seq: uint32(i),
							Timestamp: w.stepTime(i), Streams: f.Streams,
						})
					}
				}
				if err := chaosIngest(out.be, caps); err != nil {
					return nil, err
				}
			}
			if dead {
				// The walker's group is stuck one AP short of quorum;
				// chaosDegradedAfter later the janitor sweep flushes it
				// degraded.
				w.now.Store(w.stepTime(i).Add(chaosDegradedAfter + 50*time.Millisecond).UnixNano())
				out.be.Sweep()
			}
			// A walker fix may be missed; the survivor's may not.
			got, _ := collectFixes(results, 2)
			if _, ok := got[2]; !ok {
				return nil, fmt.Errorf("testbed: no survivor fix at step %d", i)
			}
			if walker, ok := got[1]; !ok || walker.Err != nil || walker.Track == nil {
				out.missed++
				delete(got, 1)
			} else if dead && walker.Degraded && walker.Track.Degraded {
				out.degradedFixes++
			}
			return got, nil
		}
		var perturb func() error
		if kill {
			perturb = func() error { dead = true; return nil }
		}
		var err error
		out.trial, err = w.run(serve, perturb)
		return out, err
	}

	ctrl, err := runWalk(false)
	ctrl.eng.Drain()
	if err != nil {
		return nil, nil, err
	}
	fault, err := runWalk(true)
	if err != nil {
		fault.eng.Close()
		return nil, nil, err
	}
	res.served = fault.trial
	res.DegradedFixes = fault.degradedFixes
	res.MissedFixes = fault.missed
	res.DegradedFlushes = fault.be.Health().DegradedFlushes

	// The degraded server's ops surface must stay up: /healthz green,
	// /metrics scrapeable with the fault counters present.
	opsH := (&ops.Server{Engine: fault.eng, Backend: fault.be, Sink: fault.sink}).Handler()
	code, body := get(opsH, "/healthz")
	res.HealthzOK = code == 200 && strings.TrimSpace(body) == "ok"
	code, body = get(opsH, "/metrics")
	res.MetricsOK = code == 200 &&
		strings.Contains(body, fmt.Sprintf("arraytrack_degraded_flushes_total %d", res.DegradedFlushes)) &&
		strings.Contains(body, "arraytrack_degraded_fixes_total") &&
		strings.Contains(body, "arraytrack_leased_ingest_workspaces")
	fault.eng.Drain()

	// Survivor parity: identical captures through a faulting server
	// must yield an identical smoothed trajectory.
	res.SurvivorMismatches = mismatches(ctrl.trial, fault.trial, 2)
	res.RMSEDeltaCM = rmseDelta(ctrl.trial, fault.trial, 2)
	res.SurvivorRMSECM = fault.rmse(2)
	res.WalkerRMSECM = fault.rmse(1)

	r.Addf("phase A: killed AP %d (site %d) before step %d of %d", killedAP, killedSite, w.mid()+1, opt.Steps)
	r.Addf("  walker fixes post-kill: %d degraded, %d missed (want %d/0)",
		res.DegradedFixes, res.MissedFixes, res.PostKillSteps)
	r.Addf("  degraded flushes %d, walker RMSE %.1fcm (3 APs), survivor RMSE %.1fcm",
		res.DegradedFlushes, res.WalkerRMSECM, res.SurvivorRMSECM)
	r.Addf("  survivor vs control: %d step mismatches, RMSE delta %.3fcm", res.SurvivorMismatches, res.RMSEDeltaCM)
	r.Addf("  healthz ok %v, metrics scrape ok %v", res.HealthzOK, res.MetricsOK)

	// ---- Phase B: slow-loris vs the idle reaper ----

	// The wire-level phases (B, C) never run the spectra: tiny random
	// captures suffice.
	rng := rand.New(rand.NewSource(chaosSeed))

	reapDisp := &chaosCountDispatcher{}
	reapBE := server.NewBackendDispatcher(1, time.Second, reapDisp)
	reapBE.IdleTimeout = chaosIdleTimeout
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); reapBE.Serve(ctx, l) }()

	healthy, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		cancel()
		return nil, nil, err
	}
	stalled, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		healthy.Close()
		cancel()
		return nil, nil, err
	}
	// The healthy connection keeps feeding frames well inside the idle
	// timeout for the whole phase.
	healthyCaps := chaosSmallCap(rng, 1, 100)
	var healthyWG sync.WaitGroup
	stopHealthy := make(chan struct{})
	healthyWG.Add(1)
	go func() {
		defer healthyWG.Done()
		tick := time.NewTicker(chaosIdleTimeout / 5)
		defer tick.Stop()
		for {
			select {
			case <-stopHealthy:
				return
			case <-tick.C:
				if err := server.WriteBatch(healthy, healthyCaps); err != nil {
					return
				}
			}
		}
	}()

	// The slow loris: chaos truncation delivers half a frame and
	// reports success, then the connection goes quiet.
	lorisFrame, err := server.AppendBatch(nil, chaosSmallCap(rng, 2, 101))
	if err != nil {
		return nil, nil, err
	}
	loris := chaos.NewInjector(chaos.Plan{Seed: chaosSeed, TruncateAfterBytes: int64(len(lorisFrame) / 2)})
	lorisW := loris.Writer(stalled)
	for off, chunk := 0, len(lorisFrame)/4+1; off < len(lorisFrame); off += chunk {
		end := off + chunk
		if end > len(lorisFrame) {
			end = len(lorisFrame)
		}
		if _, err := lorisW.Write(lorisFrame[off:end]); err != nil {
			return nil, nil, err
		}
	}
	reapStart := time.Now()
	io.ReadAll(stalled) // unblocks when the server reaps the connection
	res.ReapedWithin = time.Since(reapStart)
	res.Truncations = loris.Stats().Truncations

	// The healthy connection must still be ingesting after the reap.
	flushesAtReap := reapDisp.flushes.Load()
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(chaosIdleTimeout / 5) {
		if reapDisp.flushes.Load() >= flushesAtReap+2 {
			res.HealthyConnSurvived = true
			break
		}
	}
	close(stopHealthy)
	healthyWG.Wait()
	healthy.Close()
	stalled.Close()
	cancel()
	<-serveDone
	res.DeadlineReaped = reapBE.Health().DeadlineReaped

	r.Addf("phase B: half-frame slow loris reaped in %v (bound %v), %d truncation injected",
		res.ReapedWithin.Round(time.Millisecond), res.ReapBound, res.Truncations)
	r.Addf("  deadline reaps %d, healthy connection survived: %v", res.DeadlineReaped, res.HealthyConnSurvived)

	// ---- Phase C: corrupted frames vs the AP error budget ----

	qNow := walkBase
	quarDisp := &chaosCountDispatcher{}
	quarBE := server.NewBackendDispatcher(1, time.Second, quarDisp)
	quarBE.ErrorBudget = chaosErrorBudget
	quarBE.Now = func() time.Time { return qNow }

	goodFrame, err := server.AppendBatch(nil, chaosSmallCap(rng, 9, 102))
	if err != nil {
		return nil, nil, err
	}
	// Flip one bit in the frame's body-length field: the header parses
	// or the body-size check fails, deterministically, and the decode
	// error is charged to the AP that last spoke on the connection.
	flipper := chaos.NewInjector(chaos.Plan{Seed: chaosSeed + 1, FlipProb: 1})
	var flipped bytes.Buffer
	if _, err := flipper.Writer(&flipped).Write(goodFrame[4:8]); err != nil {
		return nil, nil, err
	}
	res.BitFlips = flipper.Stats().BitFlips
	corrupted := append(append(append([]byte{}, goodFrame[:4]...), flipped.Bytes()...), goodFrame[8:]...)

	for round := 0; round < chaosErrorBudget; round++ {
		stream := append(append([]byte{}, goodFrame...), corrupted...)
		quarBE.ServeConn(bytes.NewReader(stream)) // good frame pins the AP, corrupt frame errors
	}
	res.Quarantines = quarBE.Health().Quarantines
	flushesBefore := quarDisp.flushes.Load()
	quarBE.ServeConn(bytes.NewReader(goodFrame)) // quarantined: dropped, not flushed
	res.QuarantineDropped = quarBE.Health().QuarantinedDropped
	qNow = qNow.Add(server.DefaultQuarantineCooldown + time.Second) // past cooldown
	quarBE.ServeConn(bytes.NewReader(goodFrame))
	res.Readmitted = quarDisp.flushes.Load() == flushesBefore+1 && quarBE.Health().Quarantined == 0

	r.Addf("phase C: %d bit-flipped frames -> %d quarantine, %d captures dropped, readmitted after cooldown: %v",
		chaosErrorBudget, res.Quarantines, res.QuarantineDropped, res.Readmitted)

	// ---- Phase D: overload burst vs the bounded queue ----

	// One worker at the default queue depth (4 × workers): Submit blocks
	// while the queue is full, so the burst waits at the door instead of
	// being dropped, and every job ends in a fix.
	const burstWorkers = 1
	burstEng := engine.New(engine.Options{Workers: burstWorkers, Config: w.cfg})
	defer burstEng.Close()
	burst := w.request(0, 0, tb.APsFor(chaosWalkerSites, capture))
	var burstWG sync.WaitGroup
	var fixed, failed atomic.Int64
	for j := 0; j < chaosBurstJobs; j++ {
		burst.ClientID = uint32(200 + j)
		burstWG.Add(1)
		err := burstEng.Submit(burst, func(r engine.Result) {
			if r.Err == nil {
				fixed.Add(1)
			} else {
				failed.Add(1)
			}
			burstWG.Done()
		})
		if err != nil {
			failed.Add(1)
			burstWG.Done()
		}
	}
	burstWG.Wait()
	res.BurstFixes, res.BurstFailures = int(fixed.Load()), int(failed.Load())

	r.Addf("phase D: %d-job burst at one worker, queue depth %d: %d fixes, %d failed",
		chaosBurstJobs, 4*burstWorkers, res.BurstFixes, res.BurstFailures)

	res.LeakedWorkspaces = server.LeasedIngestWorkspaces() - leased0
	r.Addf("pooled ingest workspaces leaked across all phases: %d", res.LeakedWorkspaces)
	return r, res, nil
}
