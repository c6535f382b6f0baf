package testbed

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/ops"
	"repro/internal/server"
)

// ChaosOptions sizes the hostile-network experiment: an AP killed
// mid-walk with degraded-quorum serving, a slow-loris connection
// against the idle reaper, chaos-corrupted frames against the AP error
// budget, and a burst against the engine's overload shedding.
type ChaosOptions struct {
	// Steps is the number of fixes along the walk; KillStep is the
	// first step at which the victim AP is dead.
	Steps, KillStep int
	// Dt is the seconds between fixes, Speed the walk speed in m/s.
	Dt, Speed float64
	// WalkerSites are the AP sites that hear the walking client; the
	// LAST one is the AP killed at KillStep. SurvivorSites hear the
	// stationary client and must exclude the killed site, so the
	// survivor's captures are identical with and without the fault —
	// any RMSE difference is then the server's fault, not the
	// channel's.
	WalkerSites, SurvivorSites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// GridCell is the synthesis pitch.
	GridCell float64
	// Tracker configures the Kalman layer (identically in both runs).
	Tracker engine.TrackerOptions
	// Quorum and DegradedQuorum set the backend's full and degraded
	// flush thresholds; DegradedAfter is the stuck-group age that
	// triggers a degraded flush.
	Quorum, DegradedQuorum int
	DegradedAfter          time.Duration
	// IdleTimeout is the per-connection read deadline the slow-loris
	// phase must be reaped within twice of.
	IdleTimeout time.Duration
	// ErrorBudget is the corrupted-frame count that quarantines an AP.
	ErrorBudget int
	// ShedAfter is the queue-age bound for the overload burst;
	// BurstJobs how many batch jobs the burst submits to one worker.
	ShedAfter time.Duration
	BurstJobs int
	// Seed drives the channel noise and the chaos injectors.
	Seed int64
}

// DefaultChaosOptions walks for 14 fixes and kills one of the walker's
// four APs after the 7th.
func DefaultChaosOptions() ChaosOptions {
	opt := ChaosOptions{
		Steps:          14,
		KillStep:       7,
		Dt:             1.0,
		Speed:          1.2,
		WalkerSites:    []int{0, 1, 2, 3},
		SurvivorSites:  []int{0, 1, 2, 4},
		Capture:        DefaultCaptureOptions(),
		GridCell:       0.25,
		Tracker:        engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3, DegradedGateScale: 1.5},
		Quorum:         4,
		DegradedQuorum: 3,
		DegradedAfter:  500 * time.Millisecond,
		IdleTimeout:    250 * time.Millisecond,
		ErrorBudget:    3,
		ShedAfter:      5 * time.Millisecond,
		BurstJobs:      24,
		Seed:           71,
	}
	// One capture per AP per step: the quorum flush fires on the Nth
	// distinct AP's first capture, so multi-frame captures would strand
	// a trailing frame in the next group and blur the per-step
	// accounting this experiment asserts on.
	opt.Capture.Antennas = 6
	opt.Capture.Frames = 1
	return opt
}

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
	// its half-written frame; ReapBound is the 2×IdleTimeout gate.
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
	// Shed is how many burst jobs the engine refused as too old;
	// ShedFixes how many still completed. Both must be positive: the
	// engine degrades, it does not stop.
	Shed      uint64
	ShedFixes int
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

// chaosSmallCaps builds n tiny self-owned captures for the wire-level
// phases (reap, quarantine), where the spectra never run.
func chaosSmallCaps(rng *rand.Rand, apID, clientID uint32, ts time.Time, n int) []server.Capture {
	caps := make([]server.Capture, n)
	for i := range caps {
		streams := make([][]complex128, 4)
		for a := range streams {
			row := make([]complex128, 16)
			for s := range row {
				row[s] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			streams[a] = row
		}
		caps[i] = server.Capture{APID: apID, ClientID: clientID, Seq: uint32(i), Timestamp: ts, Streams: streams}
	}
	return caps
}

// RunChaos regenerates the survive-a-hostile-network claim in four
// phases. (A) One of the walker's four APs dies mid-walk: with
// DegradedQuorum set, the walker keeps receiving fixes — every one
// flagged Degraded end-to-end — while the stationary client on the
// surviving APs produces *exactly* the trajectory of a no-fault
// control run, and no pooled ingest workspace leaks. (B) A slow-loris
// connection delivering half a frame (chaos truncation) is reaped
// within twice the idle timeout without disturbing a healthy
// connection. (C) Chaos bit-flipped frames burn through an AP's error
// budget: the AP is quarantined, its captures dropped, and cooldown
// expiry readmits it. (D) A burst against one worker sheds aged batch
// jobs with ErrOverloaded instead of stalling the queue.
func (tb *Testbed) RunChaos(opt ChaosOptions) (*Report, *ChaosResult, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = opt.GridCell
	base := time.Unix(1700000000, 0).UTC()
	leased0 := server.LeasedIngestWorkspaces()

	res := &ChaosResult{PostKillSteps: opt.Steps - opt.KillStep, ReapBound: 2 * opt.IdleTimeout}
	r := &Report{ID: "chaos", Title: "AP kill, slow-loris, corrupted frames, overload burst"}

	// ---- Phase A: AP kill mid-walk, degraded-quorum serving ----

	// APs by wire ID (site index + 1); the killed AP is the walker's
	// last site, which the survivor's set must not contain.
	killedSite := opt.WalkerSites[len(opt.WalkerSites)-1]
	killedAP := uint32(killedSite + 1)
	apByID := map[uint32]*core.AP{}
	for _, s := range append(append([]int{}, opt.WalkerSites...), opt.SurvivorSites...) {
		if _, ok := apByID[uint32(s+1)]; !ok {
			apByID[uint32(s+1)] = &core.AP{Array: tb.NewArray(tb.Sites[s], opt.Capture)}
		}
		if uint32(s+1) == killedAP && s != killedSite {
			return nil, nil, fmt.Errorf("testbed: survivor site %d is the killed AP", s)
		}
	}
	for _, s := range opt.SurvivorSites {
		if s == killedSite {
			return nil, nil, fmt.Errorf("testbed: survivor sites must exclude killed site %d", killedSite)
		}
	}

	stepTime := func(i int) time.Time {
		return base.Add(time.Duration(float64(i) * opt.Dt * float64(time.Second)))
	}
	clientSites := map[uint32][]int{1: opt.WalkerSites, 2: opt.SurvivorSites}
	truthAt := func(id uint32, i int) geom.Point {
		if id == 1 {
			return trackingTruth(TrackingOptions{Dt: opt.Dt, Speed: opt.Speed}, i)
		}
		return geom.Pt(33, 3)
	}

	// Pre-generate every wire capture once, so the control and fault
	// runs (and the survivor in both) see identical inputs.
	wire := make([]map[uint32][]server.Capture, opt.Steps)
	for i := 0; i < opt.Steps; i++ {
		step := map[uint32][]server.Capture{}
		for _, id := range []uint32{1, 2} {
			var caps []server.Capture
			for _, s := range clientSites[id] {
				frames := Cut(tb.CaptureClient(truthAt(id, i), tb.Sites[s], opt.Capture, rng))
				for _, f := range frames {
					caps = append(caps, server.Capture{
						APID: uint32(s + 1), ClientID: id, Seq: uint32(i),
						Timestamp: stepTime(i), Streams: f.Streams,
					})
				}
			}
			step[id] = caps
		}
		wire[i] = step
	}

	// Both runs share a simulated clock: the backend's stuck-group age
	// and the tracker's dt arithmetic run on it, so "DegradedAfter
	// later" is a clock assignment, not a sleep. Atomic, because the
	// pre-sweep advance on a dead step happens while the survivor's
	// job (flushed at ingest) may still be reading Now from a worker.
	var simNanos atomic.Int64
	simNanos.Store(base.UnixNano())
	simNow := func() time.Time { return time.Unix(0, simNanos.Load()) }
	trackerOpt := opt.Tracker
	trackerOpt.Now = simNow

	type walkRun struct {
		smoothed      map[uint32][]geom.Point
		errsCM        map[uint32][]float64
		degradedFixes int
		missed        int
		eng           *engine.Engine
		be            *server.Backend
		sink          *engine.CaptureSink
	}
	runWalk := func(kill bool) (*walkRun, error) {
		out := &walkRun{smoothed: map[uint32][]geom.Point{}, errsCM: map[uint32][]float64{}}
		tracker := engine.NewTracker(trackerOpt)
		out.eng = engine.New(engine.Options{Config: cfg, Tracker: tracker})
		results := make(chan engine.Result, 8)
		out.sink = &engine.CaptureSink{
			Engine:   out.eng,
			Resolve:  func(apID uint32) *core.AP { return apByID[apID] },
			Min:      tb.Plan.Min,
			Max:      tb.Plan.Max,
			OnResult: func(r engine.Result) { results <- r },
			Now:      simNow,
		}
		out.be = server.NewBackendDispatcher(opt.Quorum, time.Second, out.sink)
		out.be.DegradedQuorum = opt.DegradedQuorum
		out.be.DegradedAfter = opt.DegradedAfter
		out.be.Now = simNow

		for i := 0; i < opt.Steps; i++ {
			simNanos.Store(stepTime(i).UnixNano())
			dead := kill && i >= opt.KillStep
			for _, id := range []uint32{2, 1} {
				caps := wire[i][id]
				if dead && id == 1 {
					live := make([]server.Capture, 0, len(caps))
					for _, c := range caps {
						if c.APID != killedAP {
							live = append(live, c)
						}
					}
					caps = live
				}
				if err := chaosIngest(out.be, caps); err != nil {
					return out, err
				}
			}
			if dead {
				// The walker's group is stuck one AP short of quorum;
				// DegradedAfter later the janitor sweep flushes it degraded.
				simNanos.Store(stepTime(i).Add(opt.DegradedAfter + 50*time.Millisecond).UnixNano())
				out.be.Sweep()
			}
			got := map[uint32]engine.Result{}
			deadline := time.After(30 * time.Second)
			for len(got) < 2 {
				select {
				case r := <-results:
					got[r.ClientID] = r
				case <-deadline:
					if _, ok := got[2]; !ok {
						return out, fmt.Errorf("testbed: no survivor fix at step %d", i)
					}
					out.missed++
					got[1] = engine.Result{ClientID: 1, Err: fmt.Errorf("missed")}
				}
			}
			for _, id := range []uint32{1, 2} {
				r := got[id]
				if r.Err != nil || r.Track == nil {
					if id == 2 {
						return out, fmt.Errorf("testbed: survivor fix failed at step %d: %v", i, r.Err)
					}
					continue
				}
				out.smoothed[id] = append(out.smoothed[id], r.Track.Smoothed)
				out.errsCM[id] = append(out.errsCM[id], r.Track.Smoothed.Dist(truthAt(id, i))*100)
				if id == 1 && dead && r.Degraded && r.Track.Degraded {
					out.degradedFixes++
				}
			}
		}
		return out, nil
	}

	ctrl, err := runWalk(false)
	if err != nil {
		if ctrl != nil && ctrl.eng != nil {
			ctrl.eng.Close()
		}
		return nil, nil, err
	}
	ctrl.eng.Drain()

	fault, err := runWalk(true)
	if err != nil {
		if fault != nil && fault.eng != nil {
			fault.eng.Close()
		}
		return nil, nil, err
	}
	res.DegradedFixes = fault.degradedFixes
	res.MissedFixes = fault.missed
	health := fault.be.Health()
	res.DegradedFlushes = health.DegradedFlushes

	// The degraded server's ops surface must stay up: /healthz green,
	// /metrics scrapeable with the fault counters present.
	srv := httptest.NewServer((&ops.Server{
		Engine:  fault.eng,
		Backend: fault.be, Sink: fault.sink,
	}).Handler())
	if resp, err := srv.Client().Get(srv.URL + "/healthz"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.HealthzOK = resp.StatusCode == 200 && strings.TrimSpace(string(body)) == "ok"
	}
	if resp, err := srv.Client().Get(srv.URL + "/metrics"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		res.MetricsOK = resp.StatusCode == 200 &&
			strings.Contains(text, fmt.Sprintf("arraytrack_degraded_flushes_total %d", res.DegradedFlushes)) &&
			strings.Contains(text, "arraytrack_degraded_fixes_total") &&
			strings.Contains(text, "arraytrack_leased_ingest_workspaces")
	}
	srv.Close()
	fault.eng.Drain()

	// Survivor parity: identical captures through a faulting server
	// must yield an identical smoothed trajectory.
	for i := range ctrl.smoothed[2] {
		if i >= len(fault.smoothed[2]) || ctrl.smoothed[2][i] != fault.smoothed[2][i] {
			res.SurvivorMismatches++
		}
	}
	ctrlRMSE := rmseSqrt(ctrl.errsCM[2])
	res.SurvivorRMSECM = rmseSqrt(fault.errsCM[2])
	res.RMSEDeltaCM = res.SurvivorRMSECM - ctrlRMSE
	if res.RMSEDeltaCM < 0 {
		res.RMSEDeltaCM = -res.RMSEDeltaCM
	}
	res.WalkerRMSECM = rmseSqrt(fault.errsCM[1])

	r.Addf("phase A: killed AP %d (site %d) before step %d of %d", killedAP, killedSite, opt.KillStep+1, opt.Steps)
	r.Addf("  walker fixes post-kill: %d degraded, %d missed (want %d/0)",
		res.DegradedFixes, res.MissedFixes, res.PostKillSteps)
	r.Addf("  degraded flushes %d, walker RMSE %.1fcm (3 APs), survivor RMSE %.1fcm",
		res.DegradedFlushes, res.WalkerRMSECM, res.SurvivorRMSECM)
	r.Addf("  survivor vs control: %d step mismatches, RMSE delta %.3fcm", res.SurvivorMismatches, res.RMSEDeltaCM)
	r.Addf("  healthz ok %v, metrics scrape ok %v", res.HealthzOK, res.MetricsOK)

	// ---- Phase B: slow-loris vs the idle reaper ----

	reapDisp := &chaosCountDispatcher{}
	reapBE := server.NewBackendDispatcher(1, time.Second, reapDisp)
	reapBE.IdleTimeout = opt.IdleTimeout
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
	healthyCaps := chaosSmallCaps(rng, 1, 100, base, 1)
	var healthyWG sync.WaitGroup
	stopHealthy := make(chan struct{})
	healthyWG.Add(1)
	go func() {
		defer healthyWG.Done()
		tick := time.NewTicker(opt.IdleTimeout / 5)
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
	lorisFrame, err := server.AppendBatch(nil, chaosSmallCaps(rng, 2, 101, base, 1))
	if err != nil {
		return nil, nil, err
	}
	loris := chaos.NewInjector(chaos.Plan{Seed: opt.Seed, TruncateAfterBytes: int64(len(lorisFrame) / 2)})
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
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(opt.IdleTimeout / 5) {
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

	qNow := base
	quarDisp := &chaosCountDispatcher{}
	quarBE := server.NewBackendDispatcher(1, time.Second, quarDisp)
	quarBE.ErrorBudget = opt.ErrorBudget
	quarBE.Cooldown = 5 * time.Second
	quarBE.Now = func() time.Time { return qNow }

	goodFrame, err := server.AppendBatch(nil, chaosSmallCaps(rng, 9, 102, base, 1))
	if err != nil {
		return nil, nil, err
	}
	// Flip one bit in the frame's body-length field: the header parses
	// or the body-size check fails, deterministically, and the decode
	// error is charged to the AP that last spoke on the connection.
	flipper := chaos.NewInjector(chaos.Plan{Seed: opt.Seed + 1, FlipProb: 1})
	var flipped bytes.Buffer
	if _, err := flipper.Writer(&flipped).Write(goodFrame[4:8]); err != nil {
		return nil, nil, err
	}
	res.BitFlips = flipper.Stats().BitFlips
	corrupted := append(append(append([]byte{}, goodFrame[:4]...), flipped.Bytes()...), goodFrame[8:]...)

	for round := 0; round < opt.ErrorBudget; round++ {
		stream := append(append([]byte{}, goodFrame...), corrupted...)
		quarBE.ServeConn(bytes.NewReader(stream)) // good frame pins the AP, corrupt frame errors
	}
	res.Quarantines = quarBE.Health().Quarantines
	flushesBefore := quarDisp.flushes.Load()
	quarBE.ServeConn(bytes.NewReader(goodFrame)) // quarantined: dropped, not flushed
	res.QuarantineDropped = quarBE.Health().QuarantinedDropped
	qNow = qNow.Add(6 * time.Second) // past cooldown
	quarBE.ServeConn(bytes.NewReader(goodFrame))
	res.Readmitted = quarDisp.flushes.Load() == flushesBefore+1 && quarBE.Health().Quarantined == 0

	r.Addf("phase C: %d bit-flipped frames -> %d quarantine, %d captures dropped, readmitted after cooldown: %v",
		opt.ErrorBudget, res.Quarantines, res.QuarantineDropped, res.Readmitted)

	// ---- Phase D: overload burst vs shedding ----

	burstCfg := core.DefaultConfig(tb.Wavelength)
	burstCfg.GridCell = 0.25
	// A deep queue so the whole burst is admitted at once: the point is
	// aged-in-queue shedding, not Submit backpressure.
	burstEng := engine.New(engine.Options{Workers: 1, Queue: opt.BurstJobs, Config: burstCfg, ShedAfter: opt.ShedAfter})
	burstAPs := tb.APsFor(opt.WalkerSites, opt.Capture)
	burstFrames := make([][]core.FrameCapture, len(opt.WalkerSites))
	for si, s := range opt.WalkerSites {
		burstFrames[si] = Cut(tb.CaptureClient(truthAt(1, 0), tb.Sites[s], opt.Capture, rng))
	}
	var burstWG sync.WaitGroup
	var burstMu sync.Mutex
	for j := 0; j < opt.BurstJobs; j++ {
		burstWG.Add(1)
		err := burstEng.Submit(engine.Request{
			ClientID: uint32(200 + j), APs: burstAPs, Captures: burstFrames,
			Min: tb.Plan.Min, Max: tb.Plan.Max, Time: base,
		}, func(r engine.Result) {
			if r.Err == nil {
				burstMu.Lock()
				res.ShedFixes++
				burstMu.Unlock()
			}
			burstWG.Done()
		})
		if err != nil {
			burstWG.Done()
		}
	}
	burstWG.Wait()
	res.Shed = burstEng.Stats().Shed
	burstEng.Close()

	r.Addf("phase D: %d-job burst at one worker, shed-after %v: %d shed with ErrOverloaded, %d fixes completed",
		opt.BurstJobs, opt.ShedAfter, res.Shed, res.ShedFixes)

	res.LeakedWorkspaces = server.LeasedIngestWorkspaces() - leased0
	r.Addf("pooled ingest workspaces leaked across all phases: %d", res.LeakedWorkspaces)
	return r, res, nil
}
