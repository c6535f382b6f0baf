// Package engine is the concurrent localization engine: a bounded
// worker pool that ingests per-client capture groups from many APs and
// emits location fixes. It is what lets the backend sustain
// ArrayTrack's system-level claim — fixes for many roaming clients at
// once — by parallelizing across clients over shared steering-vector
// and bearing-LUT caches.
//
// Scheduling is delegated to the sched subsystem (one bounded FIFO with
// per-client quotas), and the steady-state serving path is predictive:
// when a client has a live Kalman track, the engine derives a search
// region from the prediction's gate covariance, localizes inside it,
// and verifies the result — falling back to the full grid whenever the
// verification fails, so accuracy is never worse than full-grid
// serving.
package engine

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine/sched"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/track"
)

// ErrClosed is returned by Submit-family calls after Close.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded fails a job the engine shed instead of running: the
// job sat queued longer than the shed bound (SetShedAfter), so its
// captures describe where the client *was* — localizing them now would
// burn a worker on a stale answer while fresher jobs queue up behind. The
// done callback still runs (with this error), so submitters always
// hear back.
var ErrOverloaded = errors.New("engine: overloaded, job shed")

// ErrQuota is returned by Submit when the client already holds its
// full scheduler quota of admitted-but-uncompleted jobs (see
// Options.ClientQuota). The submission was refused, not queued.
var ErrQuota = sched.ErrQuota

// DefaultPredictSigma is the gate-covariance inflation Options.Predict
// starts at and SetPredictSigma(0) selects: the search box covers the
// sigma-σ innovation ellipse of the client's track. It is clamped up
// to the tracker's Mahalanobis gate so the box always contains every
// fix the tracker could accept.
const DefaultPredictSigma = 4.0

// DefaultPredictMinFixes is how many gate-accepted fixes a track
// needs before the engine trusts its prediction enough to shrink the
// search area: one fix pins position but not velocity, so the first
// couple of predictions would be wild.
const DefaultPredictMinFixes = 3

// Request is one localization job: every capture the backend grouped
// for one client, organized per AP (Captures[i] holds AP i's frames;
// APs with no frames are skipped, as in core.LocateClient).
type Request struct {
	ClientID uint32
	APs      []*core.AP
	Captures [][]core.FrameCapture
	// Min, Max bound the synthesis search area.
	Min, Max geom.Point
	// Time is the capture timestamp, used by the tracker to advance
	// the client's Kalman state. Zero means the tracker's clock.
	Time time.Time
	// Degraded marks a job built from a degraded-quorum capture group
	// (see server.Capture.Degraded): the fix is flagged end-to-end and
	// the tracker widens its outlier gate for it.
	Degraded bool
}

// Result is one location fix (or failure) for a client.
type Result struct {
	ClientID uint32
	Pos      geom.Point
	// APs is how many APs contributed a spectrum to the fix (0 on
	// failures).
	APs int
	Err error
	// Predicted reports that the fix was served from the track-guided
	// predictive region (verified interior + gate-accepted), not a
	// full-grid search.
	Predicted bool
	// Track is the smoothed track update for this fix when the engine
	// has a Tracker; nil otherwise (and on failures).
	Track *TrackUpdate
	// Degraded mirrors the request's degraded-quorum flag so consumers
	// of the fix stream can tell full-quorum fixes from best-effort
	// ones.
	Degraded bool
}

// Options configures an Engine.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// Queue is the scheduler's depth; 0 means 4×Workers. Submit
	// blocks once the queue is full, providing natural backpressure.
	// A job in flight is never interrupted, so a queued job waits at
	// most the jobs ahead of it, each bounded by one screened surface
	// (core's TestSynthJobSizeBound).
	Queue int
	// ClientQuota is the scheduler's per-client token budget: a client
	// may hold at most this many jobs admitted but not yet completed;
	// excess submissions fail fast with ErrQuota. 0 means unlimited
	// (closed deployments).
	ClientQuota int
	// Config is the pipeline configuration applied to every job, with
	// Config.APWorkers and Config.SynthWorkers clamped to 1. Fan-out
	// inside a job loses even on idle cores: with 2 ms between 3-AP
	// fixes, p50 read 176–202 µs serial against 186–212 µs on two AP
	// workers, as waking a second core costs more than half an AP stage
	// saves (EXPERIMENTS.md, "Per-fix fan-out on idle cores").
	Config core.Config
	// Tracker, when non-nil, folds every successful fix into the
	// client's Kalman track, and each fix's Result.Track carries the
	// smoothed update.
	Tracker *Tracker
	// Predict enables track-guided predictive localization (requires
	// a Tracker): jobs localize inside the track prediction's gate box
	// at DefaultPredictSigma σ (SetPredictSigma retunes or disables it)
	// and fall back to the full grid unless the result verifies (argmax
	// strictly interior to the region and Mahalanobis-accepted by the
	// prediction).
	Predict bool
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Submitted is the number of jobs accepted into the queue.
	Submitted uint64
	// Completed is the number of jobs finished (fixes + failures).
	Completed uint64
	// Fixes is the number of successful localizations completed.
	Fixes uint64
	// Failures is the number of jobs that returned an error.
	Failures uint64
	// Rejected is the number of submissions refused (engine closed or
	// client quota exhausted).
	Rejected uint64
	// QuotaRejected is the subset of Rejected refused with ErrQuota.
	QuotaRejected uint64
	// Shed is the number of jobs failed with ErrOverloaded
	// because they aged past the shed bound before a worker got to them
	// (included in Failures and Completed).
	Shed uint64
	// ShortCaptures is the number of jobs refused with
	// core.ErrShortCapture: an AP shipped streams that are not the
	// window's length, MaxSamples (included in Failures).
	ShortCaptures uint64
	// DegradedFixes is the number of successful fixes produced from
	// degraded-quorum capture groups (included in Fixes).
	DegradedFixes uint64
	// TrackedClients is the number of live client tracks (0 without a
	// tracker).
	TrackedClients int
	// TrackRejects is the cumulative number of fixes the tracker's
	// outlier gate discarded (0 without a tracker).
	TrackRejects uint64
	// Predicted counts fixes served from the track-guided predictive
	// region (verified); the PredictFallback* counters break down why
	// the remaining predictive attempts fell back to the full grid.
	Predicted uint64
	// PredictFallbackNoTrack counts jobs eligible for prediction
	// whose client had no live, mature track.
	PredictFallbackNoTrack uint64
	// PredictFallbackBorder counts predictive fixes rejected because
	// the region argmax sat on an open region border (the true peak
	// may lie outside).
	PredictFallbackBorder uint64
	// PredictFallbackGate counts predictive fixes rejected by the
	// prediction's Mahalanobis gate.
	PredictFallbackGate uint64
	// PredictFallbackError counts predictive attempts whose region
	// search errored (e.g. the predicted box left the search area).
	PredictFallbackError uint64
	// Workers is the pool size.
	Workers int
	// Queued is the instantaneous queue depth.
	Queued int
}

type job struct {
	req  Request
	done func(Result)
	// enq is the submission instant: the shed check's age and the
	// start of the job's latency.
	enq time.Time
}

// Engine runs localization jobs on a fixed worker pool scheduled by
// the sched subsystem: one FIFO with per-client admission quotas. All
// methods are safe for concurrent use.
type Engine struct {
	pipe      *core.Pipeline // APWorkers/SynthWorkers clamped to 1
	tracker   *Tracker
	q         *sched.Queue
	predSigma atomic.Uint64 // Float64bits; 0 = predictive path disabled; hot-reloaded by SetPredictSigma
	wg        sync.WaitGroup
	mu        sync.RWMutex
	closed    bool
	submitted atomic.Uint64
	rejected  atomic.Uint64
	quotaRej  atomic.Uint64
	fixes     atomic.Uint64
	failures  atomic.Uint64
	workers   int

	predicted     atomic.Uint64
	predNoTrack   atomic.Uint64
	predBorder    atomic.Uint64
	predGate      atomic.Uint64
	predRegionErr atomic.Uint64

	shedAfter atomic.Int64 // nanoseconds; 0 = shedding off (the default); set by SetShedAfter
	shed      atomic.Uint64
	short     atomic.Uint64
	degFixes  atomic.Uint64

	latency latencyHist
}

// New starts an engine with opt.Workers workers. Close it when done.
func New(opt Options) *Engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := opt.Queue
	if queue <= 0 {
		queue = 4 * workers
	}
	cfg := opt.Config
	cfg.APWorkers = min(cfg.APWorkers, 1)
	cfg.SynthWorkers = min(cfg.SynthWorkers, 1)
	e := &Engine{
		pipe:    core.NewPipeline(cfg),
		tracker: opt.Tracker,
		q:       sched.New(sched.Options{Depth: queue, ClientQuota: opt.ClientQuota}),
		workers: workers,
	}
	if opt.Predict {
		e.SetPredictSigma(DefaultPredictSigma)
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// worker owns one workspace for its lifetime: every job's frame
// spectra, votes and combined spectra come from it and go back to it.
func (e *Engine) worker() {
	defer e.wg.Done()
	ws := &music.Workspace{}
	for {
		it, ok := e.q.Pop()
		if !ok {
			return
		}
		e.execute(ws, it)
	}
}

// execute runs one scheduled item to completion on the worker's
// workspace and releases its quota token.
func (e *Engine) execute(ws *music.Workspace, it sched.Item) {
	j := it.Payload.(job)
	// Overload shedding: a job that aged past the shed bound in the queue
	// is failed, not localized — its captures are stale and fresher
	// work is waiting. Counted in Failures so the
	// Completed == Fixes + Failures invariant (and Drain accounting)
	// holds.
	if shed := e.shedAfter.Load(); shed > 0 && time.Since(j.enq) > time.Duration(shed) {
		e.shed.Add(1)
		e.failures.Add(1)
		e.latency.observe(time.Since(j.enq))
		e.q.Done(it.Client)
		j.done(Result{ClientID: j.req.ClientID, Err: ErrOverloaded, Degraded: j.req.Degraded})
		return
	}
	r := e.run(ws, j.req)
	e.latency.observe(time.Since(j.enq))
	e.q.Done(it.Client)
	j.done(r)
}

// run localizes one job. Its combined spectra are lent by ws and go
// back to it once the fix is synthesized and tracked, or has failed.
func (e *Engine) run(ws *music.Workspace, req Request) Result {
	specs, err := e.pipe.ProcessAPsWS(ws, req.APs, req.Captures)
	if err != nil {
		e.failures.Add(1)
		if errors.Is(err, core.ErrShortCapture) {
			e.short.Add(1)
		}
		return Result{ClientID: req.ClientID, Err: err}
	}
	defer func() {
		for _, s := range specs {
			ws.Recycle(s.Spectrum)
		}
	}()
	r := Result{ClientID: req.ClientID}

	// Predictive path: spectra are processed exactly once; only the
	// synthesis stage retries on fallback, so a fallback costs one
	// extra (full-grid) search, never a pipeline rerun.
	if pos, ok := e.predictiveFix(req, specs); ok {
		r.Pos, r.Predicted = pos, true
	} else {
		r.Pos, err = e.pipe.Synthesize(specs, req.Min, req.Max)
		if err != nil {
			r.Err = err
			e.failures.Add(1)
			return r
		}
	}
	e.fixes.Add(1)
	r.APs, r.Degraded = len(specs), req.Degraded
	if req.Degraded {
		e.degFixes.Add(1)
	}
	if e.tracker != nil {
		upd := e.tracker.ObserveFix(req.ClientID, r.Pos, req.Time, req.Degraded)
		r.Track = &upd
	}
	return r
}

// predictiveFix attempts the track-guided region localization: derive a search region from the
// client's Kalman prediction (gate covariance inflated to the
// configured sigma, padded by two grid cells so the verification ring
// exists), localize inside it, and verify — the region argmax must be
// strictly interior on every open side and the position must pass the
// prediction's Mahalanobis gate. Any other outcome falls back to the
// full grid, so a served fix is either verified-predictive or exactly
// what full-grid serving would produce.
func (e *Engine) predictiveFix(req Request, specs []core.APSpectrum) (geom.Point, bool) {
	sigma := e.PredictSigma()
	if sigma <= 0 || e.tracker == nil {
		return geom.Point{}, false
	}
	pred, ok := e.tracker.Predict(req.ClientID, req.Time, DefaultPredictMinFixes)
	if !ok {
		e.predNoTrack.Add(1)
		return geom.Point{}, false
	}
	region := PredictRegion(pred, sigma, e.pipe.Config().GridCell)
	pos, interior, err := e.pipe.SynthesizeRegionInterior(specs, req.Min, req.Max, region)
	switch {
	case err != nil:
		// E.g. the predicted box fell outside the search area after a
		// long coast; the full grid still serves the client.
		e.predRegionErr.Add(1)
	case !interior:
		e.predBorder.Add(1)
	case !pred.Accepts(pos):
		e.predGate.Add(1)
	default:
		e.predicted.Add(1)
		return pos, true
	}
	return geom.Point{}, false
}

// PredictRegion derives the track-guided search region the engine
// uses for a prediction: the sigma-σ gate box padded by two grid
// cells on every side, so a verified fix always has an interior ring
// to sit in. Exported so benchmarks and experiments can measure
// exactly the serving path's region.
func PredictRegion(pred track.Prediction, sigma, cell float64) core.Region {
	if cell <= 0 {
		cell = 0.10
	}
	pad := 2 * cell
	lo, hi := pred.Box(sigma)
	return core.Region{
		Min: geom.Pt(lo.X-pad, lo.Y-pad),
		Max: geom.Pt(hi.X+pad, hi.Y+pad),
	}
}

// Submit enqueues a job; done is invoked exactly once, from a worker
// goroutine, with the job's result. Submit blocks while the queue is
// full, fails fast with ErrQuota when the client's scheduler quota is
// exhausted, and returns ErrClosed after Close.
func (e *Engine) Submit(req Request, done func(Result)) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.rejected.Add(1)
		return ErrClosed
	}
	// Count before the push: a worker can dequeue and complete the job
	// the instant it lands, and Stats must never show Completed >
	// Submitted. Rejected pushes undo the count.
	e.submitted.Add(1)
	j := job{req: req, done: done, enq: time.Now()}
	if err := e.q.Push(sched.Item{Client: req.ClientID, Payload: j}); err != nil {
		e.submitted.Add(^uint64(0))
		e.rejected.Add(1)
		if errors.Is(err, sched.ErrQuota) {
			e.quotaRej.Add(1)
			return ErrQuota
		}
		return ErrClosed
	}
	return nil
}

// Tracker returns the engine's tracker (nil when tracking is off).
func (e *Engine) Tracker() *Tracker { return e.tracker }

// InFlight returns one client's admitted-but-not-completed job count.
// Once a client's feed is paused and InFlight reaches zero, every
// accepted fix for that client has been folded into the tracker — the
// quiesce point a shard migration snapshots at.
func (e *Engine) InFlight(clientID uint32) int { return e.q.InFlight(clientID) }

// PredictSigma returns the live predictive-region sigma (0 = the
// predictive path is disabled).
func (e *Engine) PredictSigma() float64 {
	return math.Float64frombits(e.predSigma.Load())
}

// SetPredictSigma hot-reloads the predictive-region sigma: 0 selects
// DefaultPredictSigma, negative disables the predictive path, and any
// value is clamped up to the tracker's Mahalanobis gate so the search
// box always covers every fix the tracker could accept. A no-op on an
// engine without a tracker (there is nothing to predict from). Takes
// effect on the next job.
func (e *Engine) SetPredictSigma(sigma float64) {
	if e.tracker == nil {
		return
	}
	if sigma < 0 {
		e.predSigma.Store(0)
		return
	}
	if sigma == 0 {
		sigma = DefaultPredictSigma
	}
	if g := e.tracker.opt.Gate; sigma < g {
		sigma = g // the region must cover everything the gate accepts
	}
	e.predSigma.Store(math.Float64bits(sigma))
}

// ShedAfter returns the live overload-shedding age bound (0 =
// shedding is off).
func (e *Engine) ShedAfter() time.Duration {
	return time.Duration(e.shedAfter.Load())
}

// SetShedAfter hot-reloads the overload-shedding age bound: positive
// sheds jobs older than d at execution time, zero or negative
// disables shedding. Takes effect on the next job a worker picks up,
// queued ones included (every job carries its submission stamp).
func (e *Engine) SetShedAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.shedAfter.Store(int64(d))
}

// SetClientQuota hot-reloads the scheduler's per-client token budget
// (0 = unlimited); admitted jobs are never cancelled.
func (e *Engine) SetClientQuota(n int) { e.q.SetClientQuota(n) }

// ClientQuota returns the scheduler's live per-client token budget.
func (e *Engine) ClientQuota() int { return e.q.ClientQuota() }

// Locate runs one job synchronously through the pool.
func (e *Engine) Locate(req Request) Result {
	ch := make(chan Result, 1)
	if err := e.Submit(req, func(r Result) { ch <- r }); err != nil {
		return Result{ClientID: req.ClientID, Err: err}
	}
	return <-ch
}

// LocateBatch runs many jobs concurrently and returns results aligned
// with reqs. It blocks until every job completes.
func (e *Engine) LocateBatch(reqs []Request) []Result {
	out := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		i := i
		wg.Add(1)
		err := e.Submit(reqs[i], func(r Result) {
			out[i] = r
			wg.Done()
		})
		if err != nil {
			out[i] = Result{ClientID: reqs[i].ClientID, Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return out
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	fixes := e.fixes.Load()
	failures := e.failures.Load()
	s := Stats{
		Submitted:              e.submitted.Load(),
		Completed:              fixes + failures,
		Fixes:                  fixes,
		Failures:               failures,
		Rejected:               e.rejected.Load(),
		QuotaRejected:          e.quotaRej.Load(),
		Shed:                   e.shed.Load(),
		ShortCaptures:          e.short.Load(),
		DegradedFixes:          e.degFixes.Load(),
		Predicted:              e.predicted.Load(),
		PredictFallbackNoTrack: e.predNoTrack.Load(),
		PredictFallbackBorder:  e.predBorder.Load(),
		PredictFallbackGate:    e.predGate.Load(),
		PredictFallbackError:   e.predRegionErr.Load(),
		Workers:                e.workers,
		Queued:                 e.q.Stats().Queued,
	}
	if e.tracker != nil {
		ts := e.tracker.Stats()
		s.TrackedClients = ts.Clients
		s.TrackRejects = ts.GateRejects
	}
	return s
}

// Config returns the pipeline configuration every job runs under, with
// its defaults resolved (the caches and estimator are never nil) and
// APWorkers and SynthWorkers clamped to 1.
func (e *Engine) Config() core.Config { return e.pipe.Config() }

// Close stops accepting jobs, drains the queue, and waits for the
// workers to exit. Safe to call more than once.
func (e *Engine) Close() { e.Drain() }

// Drain performs the graceful-shutdown sequence: new submissions are
// refused with ErrClosed, every already-admitted job runs to completion (done callbacks included — nothing is
// dropped), and Drain returns once the last worker has exited. After
// Drain the tracker (if any) is quiescent, so Tracker.SnapshotAll
// observes the final post-flush state of every track — the
// write-snapshot-then-exit step of a rolling restart runs on exactly
// the state a continued process would have served from. Safe to call
// more than once; later calls return immediately.
func (e *Engine) Drain() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait() // a concurrent first Drain may still be flushing
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.q.Close()
	e.wg.Wait()
}
