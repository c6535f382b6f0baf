package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/testbed"
)

// options are one run's settings. The flags set seed, seconds, trace
// and outDir; the rest exists for the smoke test, which shrinks the
// pool and the phases and cannot hold a race-detector build to the
// latency limit.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string

	size      poolSize      // zero: fullSize
	rate      float64       // zero: the workload's frozen rate
	limit     time.Duration // zero: latencyLimit
	setupReps int           // zero: 3
	ledgerTxs int           // zero: 64
}

func (o options) withDefaults() options {
	if o.size == (poolSize{}) {
		o.size = fullSize
	}
	if o.limit == 0 {
		o.limit = latencyLimit
	}
	if o.setupReps == 0 {
		o.setupReps = 3
	}
	if o.ledgerTxs == 0 {
		o.ledgerTxs = 64
	}
	return o
}

// phases splits the measured seconds: a tenth to warm up, the rest
// halved between the closed-loop and the open-loop phase.
func (o options) phases() (warm, saturate, paced time.Duration) {
	total := time.Duration(o.seconds * float64(time.Second))
	warm = total / 10
	return warm, (total - warm) / 2, (total - warm) / 2
}

type phase uint8

const (
	phaseCheck phase = iota
	phaseWarm
	phaseSaturate
	phasePaced
)

// fixRec follows one fixing transmission from its due time to its
// result. Times are offsets from the run's origin.
type fixRec struct {
	client    uint32
	phase     phase
	truth     geom.Point
	due       time.Duration // when the schedule wanted it sent
	flush     time.Duration // when the quorum flush reached the dispatcher (traced only)
	done      time.Duration
	pos       geom.Point
	err       error
	predicted bool
}

// recorder matches results to transmissions: a result for client c is
// the answer to c's oldest unanswered transmission.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	recs   []fixRec
	// open[c] are c's unanswered transmissions, oldest first; flushed[c]
	// counts how many of them have passed the dispatcher shim.
	open    map[uint32][]int
	flushed map[uint32]int
	// unexpected counts results no transmission was waiting for: a
	// duplicate, or a fix for a sub-quorum client.
	unexpected int
	results    atomic.Int64
	good       atomic.Int64
	tracing    atomic.Bool
	wake       chan struct{}
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), open: map[uint32][]int{}, flushed: map[uint32]int{}, wake: make(chan struct{}, 1)}
}

func (r *recorder) sent(rec fixRec) {
	r.mu.Lock()
	r.open[rec.client] = append(r.open[rec.client], len(r.recs))
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// onResult is the CaptureSink's OnResult: it runs on engine workers.
func (r *recorder) onResult(res engine.Result) {
	now := time.Since(r.origin)
	r.mu.Lock()
	q := r.open[res.ClientID]
	if len(q) == 0 {
		r.unexpected++
		r.mu.Unlock()
		return
	}
	rec := &r.recs[q[0]]
	if len(q) == 1 {
		delete(r.open, res.ClientID)
		delete(r.flushed, res.ClientID)
	} else {
		r.open[res.ClientID] = q[1:]
		if r.flushed[res.ClientID] > 0 {
			r.flushed[res.ClientID]--
		}
	}
	rec.done, rec.pos, rec.err, rec.predicted = now, res.Pos, res.Err, res.Predicted
	r.mu.Unlock()
	if res.Err == nil {
		r.good.Add(1)
	}
	r.results.Add(1)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// shim is the traced run's server.Dispatcher: it stamps the moment a
// quorum flush leaves the server layer, then hands it on.
type shim struct {
	r     *recorder
	inner server.Dispatcher
}

func (s shim) Dispatch(clientID uint32, caps []server.Capture) {
	if s.r.tracing.Load() {
		now := time.Since(s.r.origin)
		s.r.mu.Lock()
		if q, k := s.r.open[clientID], s.r.flushed[clientID]; k < len(q) {
			s.r.recs[q[k]].flush = now
			s.r.flushed[clientID] = k + 1
		}
		s.r.mu.Unlock()
	}
	s.inner.Dispatch(clientID, caps)
}

// segmentLen is how long the timed phases send between two stretches of
// yardstick traffic, refSegmentLen how long the yardstick runs. The box
// changes speed every tenth of a second or so, and the system's numbers
// are judged by the yardstick's (see summarize), so what matters is that
// the two alternate quickly and that a phase has a few dozen of each.
// Shorter segments would only spend more of the run on filling and
// draining the pipeline.
const (
	segmentLen    = 250 * time.Millisecond
	refSegmentLen = 150 * time.Millisecond
)

// segment is one stretch of a timed phase: the system is idle when it
// starts and idle again when it ends.
type segment struct {
	phase  phase
	start  time.Duration // offset from the run's origin
	wall   time.Duration
	cpu    time.Duration
	good   int64
	traced bool
	// ref is what the yardstick did around the segment: the mean of the
	// stretch before it and the stretch after it.
	ref refSample
}

// generator is the one goroutine and one connection that offer load.
type generator struct {
	s    *sut
	enc  *encoder
	rec  *recorder
	next int // next transmission index
	sent int64

	lag      []time.Duration // paced: actual send minus due
	maxWrite time.Duration
	segs     []segment
	// ref is the yardstick, driven between segments with the same
	// window or at the same rate as the system.
	ref       *refSys
	pacedRate float64
}

// measureRef drives the yardstick the way phase ph drives the system.
func (g *generator) measureRef(ph phase) (refSample, error) {
	rate := 0.0
	if ph == phasePaced {
		rate = g.pacedRate
	}
	return g.ref.measure(refSegmentLen, closedLoopWindow, rate)
}

// send encodes the next transmission, waits for its due time (zero:
// now), and writes it. Encoding comes first so that its cost, a
// millisecond for 18 captures, is not charged to the system as latency.
func (g *generator) send(ph phase, due time.Time) error {
	buf, t, _, err := g.enc.encode(g.next)
	if err != nil {
		return err
	}
	g.next++
	if due.IsZero() && !g.awaitClient(t.client) {
		return errors.New("closed loop: no result for 10 s")
	}
	sleepUntil(due)
	now := time.Now()
	if due.IsZero() {
		due = now
	} else {
		g.lag = append(g.lag, now.Sub(due))
	}
	g.rec.sent(fixRec{client: t.client, phase: ph, truth: g.enc.pool.truth[t.pos], due: due.Sub(g.rec.origin)})
	if _, err := g.s.conn.Write(buf); err != nil {
		return fmt.Errorf("generator write: %w", err)
	}
	if ph == phasePaced {
		if d := time.Since(now); d > g.maxWrite {
			g.maxWrite = d
		}
	}
	g.sent++
	return nil
}

// await blocks until at most window transmissions are unanswered, or
// the deadline passes.
func (g *generator) await(window int64, deadline time.Time) bool {
	for g.sent-g.rec.results.Load() > window {
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-g.rec.wake:
		case <-t.C:
		}
		t.Stop()
	}
	return true
}

func (g *generator) drain() bool { return g.await(0, time.Now().Add(drainDeadline)) }

// awaitClient blocks until the client has no unanswered transmission.
// The closed loops call it before they send: two fixes of one client in
// flight can finish in either order, and the client's track, and with
// it every later fix, would then depend on timing. With 24 walkers and a
// window of 16 it hardly ever has to wait.
func (g *generator) awaitClient(client uint32) bool {
	deadline := time.Now().Add(drainDeadline)
	for {
		g.rec.mu.Lock()
		open := len(g.rec.open[client])
		g.rec.mu.Unlock()
		if open == 0 {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-g.rec.wake:
		case <-t.C:
		}
		t.Stop()
	}
}

// timed runs one phase as segments until d has passed: a stretch of
// yardstick traffic, then body sends for segmentLen and every result is
// awaited, then the yardstick again, over and over. When tracing, the
// shim records in every other segment.
func (g *generator) timed(ph phase, d time.Duration, body func(end time.Time) error) error {
	traced := g.rec.tracing.Load()
	defer func() { g.rec.tracing.Store(traced) }()
	before, err := g.measureRef(ph)
	if err != nil {
		return err
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0, cpu0, good0 := time.Now(), cpuTime(), g.rec.good.Load()
		if err := body(t0.Add(segmentLen)); err != nil {
			return err
		}
		if !g.drain() {
			return errors.New("no result for 10 s")
		}
		sg := segment{phase: ph, start: t0.Sub(g.rec.origin), wall: time.Since(t0), cpu: cpuTime() - cpu0, good: g.rec.good.Load() - good0, traced: g.rec.tracing.Load()}
		after, err := g.measureRef(ph)
		if err != nil {
			return err
		}
		sg.ref = refSample{(before.rate + after.rate) / 2, (before.cpuMS + after.cpuMS) / 2, (before.latMS + after.latMS) / 2}
		g.segs = append(g.segs, sg)
		before = after
		if traced {
			g.rec.tracing.Store(!g.rec.tracing.Load())
		}
	}
	return nil
}

// closedLoop sends as fast as results come back, never more than
// closedLoopWindow ahead and never two for one client, for d: the warm-up in one piece, the saturate phase in
// segments.
func (g *generator) closedLoop(ph phase, d time.Duration) error {
	flatOut := func(end time.Time) error {
		for time.Now().Before(end) {
			if !g.await(closedLoopWindow-1, time.Now().Add(drainDeadline)) {
				return errors.New("closed loop: no result for 10 s")
			}
			if err := g.send(ph, time.Time{}); err != nil {
				return err
			}
		}
		return nil
	}
	if ph == phaseWarm {
		err := flatOut(time.Now().Add(d))
		g.drain()
		return err
	}
	return g.timed(ph, d, flatOut)
}

// openLoop sends on a fixed schedule at rate for d, whatever the
// system does: a stall shows up as latency measured from the due time,
// and as generator lag. The schedule restarts with every segment.
func (g *generator) openLoop(d time.Duration, rate float64, rng *rand.Rand) error {
	gap := float64(time.Second) / rate
	return g.timed(phasePaced, d, func(end time.Time) error {
		start := time.Now()
		for i := 0; ; i++ {
			// A quarter gap of seeded jitter either way keeps the arrivals
			// from locking step with the engine's service time.
			due := start.Add(time.Duration((float64(i) + 0.5 + (rng.Float64()-0.5)*0.5) * gap))
			if !due.Before(end) {
				return nil
			}
			if err := g.send(phasePaced, due); err != nil {
				return err
			}
		}
	})
}

// lagStats returns the share of paced sends that started more than
// lateSend after their due time, and the worst lag.
func (g *generator) lagStats() (lateShare float64, worst time.Duration) {
	late := 0
	for _, l := range g.lag {
		if l > lateSend {
			late++
		}
		worst = max(worst, l)
	}
	return float64(late) / math.Max(1, float64(len(g.lag))), worst
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until
// t. time.Sleep would do, were it not that an idle Go scheduler waits
// in epoll with a timeout rounded up to a millisecond: sends came up to
// a millisecond late, half a millisecond in the median, which is a
// third of the latency being measured.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters are the public counters read at phase boundaries.
type counters struct {
	eng                    engine.Stats // summed over engines; cache fields unused
	synthHits, synthMisses uint64
	steerHits, steerMisses uint64
	stale                  uint64
	mallocs                uint64
	gcPause                time.Duration
	at                     time.Time
	routed                 uint64
	perShard               []uint64
}

func (s *sut) counters() counters {
	var c counters
	for _, e := range s.engines {
		st := e.Stats()
		c.eng.Fixes += st.Fixes
		c.eng.QuotaRejected += st.QuotaRejected
		c.eng.Shed += st.Shed
		c.eng.Predicted += st.Predicted
		c.eng.PredictFallbackBorder += st.PredictFallbackBorder
		c.eng.PredictFallbackGate += st.PredictFallbackGate
		c.eng.TrackRejects += st.TrackRejects
	}
	// The engines of a cluster share the process-wide caches, so read
	// those once rather than summing them per engine.
	syn, steer := s.cfg.SynthCache.Usage(), s.cfg.Steering.Usage()
	c.synthHits, c.synthMisses = syn.Hits, syn.Misses
	c.steerHits, c.steerMisses = steer.Hits, steer.Misses
	for _, b := range s.backends {
		c.stale += b.Health().StaleDropped
	}
	if s.router != nil {
		rs := s.router.Stats()
		c.routed, c.perShard = rs.Routed, rs.PerShard
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPause, c.at = ms.Mallocs, time.Duration(ms.PauseTotalNs), time.Now()
	return c
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	correct   bool
	problems  []string
	attempted int
	failed    int
	// latencyValid is false when the generator itself ran late: the
	// latency numbers then describe the generator, not the system.
	latencyValid bool
	// latMS are the paced fixes' latencies from their due times (at
	// reference speed, like every time reported), errCM every good fix's
	// distance from the truth; summarize sorts both.
	latMS, errCM []float64
	e2e          map[string]metric
	// raw holds the timing metrics as the clock read them; e2e holds them
	// at reference speed. slow is how many times slower than on the
	// reference box's ordinary day the benchmark's own code ran around
	// them: the calibration kernel around the set-ups, the yardstick in
	// the two timed phases.
	raw   map[string]metric
	slow  struct{ setup, saturate, paced float64 }
	layer map[string]metric // traced runs only
}

// run executes one workload: set-up (repeated, median reported), the
// output check, then warm, saturate and paced, then the ledger pass if
// traced.
func run(w *workload, o options) (*result, error) {
	o = o.withDefaults()
	tb := testbed.New()
	res := &result{workload: w.name, correct: true, e2e: map[string]metric{}, raw: map[string]metric{}}

	// Set-up, several times: the pool, the listeners, the engine.
	slab := make([]complex128, w.slabLen(o.size))
	leasedBefore := server.LeasedIngestWorkspaces()
	var (
		s      *sut
		p      *pool
		rec    *recorder
		setups []float64
	)
	setupSlow := []float64{calibrate()}
	for i := 0; i < o.setupReps; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		p = genPool(tb, w, o.size, o.seed, slab)
		rec = newRecorder()
		var wrap wrapDispatcher
		if o.trace {
			r := rec
			wrap = func(d server.Dispatcher) server.Dispatcher { return shim{r: r, inner: d} }
		}
		var err error
		if s, err = startSUT(tb, w, o.outDir, rec.onResult, wrap); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSlow = append(setupSlow, calibrate())
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	res.slow.setup = mean(setupSlow)
	res.raw["setup_s"] = metric{median(setups), "s"}
	res.e2e["setup_s"] = metric{median(setups) / res.slow.setup, "s"}

	// Simulated stamps start an hour back: the only wall-clock check on
	// the path is the future-skew guard.
	base := time.Now().Add(-time.Hour).Truncate(time.Microsecond)
	ref, err := startRef(len(w.sites)*(w.frames+w.overheard), w.ref)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	g := &generator{s: s, enc: newEncoder(w, p, base), rec: rec, ref: ref}

	if err := outputCheck(tb, w, o, g); err != nil {
		return nil, fmt.Errorf("%s: output check: %w", w.name, err)
	}

	warm, saturate, paced := o.phases()
	if err := g.closedLoop(phaseWarm, warm); err != nil {
		return nil, err
	}
	rec.tracing.Store(o.trace)
	before := s.counters()
	if err := g.closedLoop(phaseSaturate, saturate); err != nil {
		return nil, err
	}
	rate := o.rate
	if rate == 0 {
		rate = w.rate
	}
	g.pacedRate = rate
	if err := g.openLoop(paced, rate, rand.New(rand.NewSource(o.seed^0x5eed))); err != nil {
		return nil, err
	}
	after := s.counters()

	// Everything is answered or written off; stop the system and see
	// that nothing leaked. Stopping comes first: the last bystander
	// frames may still be in the socket when the last fix comes back.
	s.stop()
	s.releasePending()
	leased := server.LeasedIngestWorkspaces() - leasedBefore
	if leased != 0 {
		res.fail("%d ingest workspaces still leased after drain", leased)
	}
	rec.mu.Lock()
	if rec.unexpected != 0 {
		res.fail("%d results nobody was waiting for (duplicate or sub-quorum fix)", rec.unexpected)
	}
	recs := rec.recs
	rec.mu.Unlock()

	summarize(res, w, o, g, recs)
	if o.trace {
		led, err := ledgerPass(tb, w, o, p)
		if err != nil {
			return nil, fmt.Errorf("%s: ledger: %w", w.name, err)
		}
		layerMetrics(res, w, g, recs, before, after, led, float64(leased))
		if err := writeTrace(o.outDir, res, recs, led); err != nil {
			return nil, err
		}
	}
	s = nil
	return res, nil
}

func (r *result) fail(format string, a ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// outputCheck sends the first transmissions through the socket path
// one window at a time and compares, exactly, every client's first fix
// with core.Pipeline.Locate on the captures decoded from the same wire
// bytes; for the cluster it also replays them through a single engine
// and compares every client's whole fix sequence.
func outputCheck(tb *testbed.Testbed, w *workload, o options, g *generator) error {
	n := 32
	if w.walk {
		n = 4 * o.size.clients // the fourth round is track-guided
	}
	var wire [][]byte
	var txs []tx
	for i := 0; i < n; i++ {
		buf, t, _, err := g.enc.encode(g.next)
		if err != nil {
			return err
		}
		g.next++
		wire = append(wire, append([]byte(nil), buf...))
		txs = append(txs, t)
	}
	got, err := g.replay(wire, txs)
	if err != nil {
		return err
	}

	pipe := core.NewPipeline(g.s.cfg)
	seen := map[uint32]bool{}
	for i, r := range got {
		if seen[r.client] {
			continue
		}
		seen[r.client] = true
		aps, frames, release, err := decodeFix(bytes.NewReader(wire[i]), r.client, g.s.resolve)
		if err != nil {
			return err
		}
		want, _, err := pipe.Locate(aps, frames, tb.Plan.Min, tb.Plan.Max)
		release()
		if err != nil {
			return fmt.Errorf("reference locate %d: %w", i, err)
		}
		if want != r.pos {
			return fmt.Errorf("transmission %d (client %d): socket path fixed %v, Pipeline.Locate %v", i, r.client, r.pos, want)
		}
	}
	if !w.cluster {
		return nil
	}

	// The same bytes through the single-engine wiring.
	single := *w
	single.cluster = false
	ref := newRecorder()
	s, err := startSUT(tb, &single, o.outDir, ref.onResult, nil)
	if err != nil {
		return err
	}
	defer s.stop()
	want, err := (&generator{s: s, enc: g.enc, rec: ref}).replay(wire, txs)
	if err != nil {
		return fmt.Errorf("single-engine replay: %w", err)
	}
	for i := range got {
		if a, b := got[i], want[i]; a.pos != b.pos || a.predicted != b.predicted {
			return fmt.Errorf("transmission %d (client %d): cluster fixed %v (predicted %v), single engine %v (predicted %v)",
				i, a.client, a.pos, a.predicted, b.pos, b.predicted)
		}
	}
	return nil
}

// replay sends saved transmissions closed-loop and returns their
// records once every one has its result, which must be a fix.
func (g *generator) replay(wire [][]byte, txs []tx) ([]fixRec, error) {
	for i, buf := range wire {
		if !g.await(closedLoopWindow-1, time.Now().Add(drainDeadline)) || !g.awaitClient(txs[i].client) {
			return nil, errors.New("no result for 10 s")
		}
		g.rec.sent(fixRec{client: txs[i].client, phase: phaseCheck, truth: g.enc.pool.truth[txs[i].pos]})
		if _, err := g.s.conn.Write(buf); err != nil {
			return nil, err
		}
		g.sent++
	}
	if !g.drain() {
		return nil, fmt.Errorf("%d of %d transmissions never produced a result", g.sent-g.rec.results.Load(), len(wire))
	}
	g.rec.mu.Lock()
	defer g.rec.mu.Unlock()
	if g.rec.unexpected != 0 {
		return nil, fmt.Errorf("%d results nobody was waiting for", g.rec.unexpected)
	}
	for i, r := range g.rec.recs {
		if r.err != nil {
			return nil, fmt.Errorf("transmission %d: %w", i, r.err)
		}
	}
	return append([]fixRec(nil), g.rec.recs...), nil
}

// decodeFix decodes a transmission's frames and groups the given
// client's captures per AP in first-seen order, as the capture sink
// does. release returns the pooled buffers.
func decodeFix(r io.Reader, client uint32, resolve func(uint32) *core.AP) (aps []*core.AP, frames [][]core.FrameCapture, release func(), err error) {
	var held []server.Capture
	release = func() { server.ReleaseAll(held) }
	index := map[uint32]int{}
	for {
		ws := server.GetIngestWorkspace()
		caps, err := server.ReadFrameInto(r, ws)
		if err != nil {
			ws.Discard()
			if errors.Is(err, io.EOF) {
				return aps, frames, release, nil
			}
			release()
			return nil, nil, nil, err
		}
		held = append(held, caps...)
		for _, c := range caps {
			if c.ClientID != client {
				continue
			}
			k, ok := index[c.APID]
			if !ok {
				k = len(aps)
				index[c.APID] = k
				aps = append(aps, resolve(c.APID))
				frames = append(frames, nil)
			}
			frames[k] = append(frames[k], core.FrameCapture{Streams: c.Streams})
		}
	}
}

// summarize computes the end-to-end metrics from the fix records and
// the segments. A transmission fails when it yields no good fix (error,
// reject, shed, or nothing by the drain deadline); a paced fix later
// than the limit is a fix, but not an ok one.
//
// The three timing metrics are ratios to the yardstick, times what the
// yardstick does on the reference box on an ordinary day (w.ref's
// nominal values). Capacity and CPU per fix: the mean over the saturate
// segments, over the yardstick's mean over the same phase. The host's
// disturbances are shorter than a segment as often as longer, so a
// segment and the yardstick next to it need not have met the same box;
// but the two alternate, so over a phase they meet the same mixture, and
// the means (which, unlike medians, use every segment) agree on it.
// Latency is heavy-tailed, and there the median wins: each segment's
// median latency over the yardstick's on either side of it, and the
// median of those.
func summarize(res *result, w *workload, o options, g *generator, recs []fixRec) {
	var paced []segment
	for _, sg := range g.segs {
		if sg.phase == phasePaced {
			paced = append(paced, sg)
		}
	}
	segLat := make([][]float64, len(paced))
	late, k := 0, 0
	for i := range recs {
		r := &recs[i]
		if r.phase != phaseSaturate && r.phase != phasePaced {
			continue
		}
		res.attempted++
		if r.done == 0 || r.err != nil {
			res.failed++
			continue
		}
		res.errCM = append(res.errCM, r.pos.Dist(r.truth)*100)
		if r.phase == phasePaced {
			// The paper's budget is in real time, whatever the box.
			if r.done-r.due > o.limit {
				late++
			}
			ms := float64(r.done-r.due) / float64(time.Millisecond)
			res.latMS = append(res.latMS, ms)
			// Records are in due order, and so are the segments.
			for k+1 < len(paced) && r.due >= paced[k+1].start {
				k++
			}
			segLat[k] = append(segLat[k], ms)
		}
	}

	// As the clock read them: all the saturate phase's fixes over all its
	// segments' time, and the median of all paced latencies.
	var wall, cpu time.Duration
	var good int64
	var rates, cpus, refRates, refCPUs, lats, refLats []float64
	for _, sg := range g.segs {
		if sg.phase != phaseSaturate || sg.good == 0 {
			continue
		}
		wall, cpu, good = wall+sg.wall, cpu+sg.cpu, good+sg.good
		rates = append(rates, float64(sg.good)/sg.wall.Seconds())
		cpus = append(cpus, float64(sg.cpu)/float64(time.Millisecond)/float64(sg.good))
		refRates, refCPUs = append(refRates, sg.ref.rate), append(refCPUs, sg.ref.cpuMS)
	}
	for i, sg := range paced {
		if len(segLat[i]) > 0 {
			lats = append(lats, median(segLat[i])/sg.ref.latMS)
			refLats = append(refLats, sg.ref.latMS)
		}
	}
	res.raw["fixes_per_s"] = metric{float64(good) / wall.Seconds(), "fixes/s"}
	res.raw["cpu_ms_per_fix"] = metric{float64(cpu) / float64(time.Millisecond) / float64(good), "ms"}
	res.raw["fix_latency_p50_ms"] = metric{quantile(res.latMS, 0.5), "ms"}

	res.slow.saturate, res.slow.paced = w.ref.rate/mean(refRates), median(refLats)/w.ref.latMS
	for i := range res.latMS {
		res.latMS[i] /= res.slow.paced
	}

	lateShare, _ := g.lagStats()
	res.latencyValid = len(g.lag) > 0 && lateShare <= maxLateShare && g.maxWrite <= maxWriteBlock

	res.e2e["fixes_per_s"] = metric{mean(rates) / mean(refRates) * w.ref.rate, "fixes/s"}
	res.e2e["cpu_ms_per_fix"] = metric{mean(cpus) / mean(refCPUs) * w.ref.cpuMS, "ms"}
	res.e2e["fix_latency_p50_ms"] = metric{median(lats) * w.ref.latMS, "ms"}
	res.e2e["fix_error_median_cm"] = metric{quantile(res.errCM, 0.5), "cm"}
	res.e2e["fix_error_p75_cm"] = metric{quantile(res.errCM, 0.75), "cm"}
	res.e2e["ok_share"] = metric{float64(res.attempted-res.failed-late) / math.Max(1, float64(res.attempted)), "ratio"}
	for name, m := range res.e2e {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.fail("%s is %v", name, m.Value)
		}
	}
}

// quantile returns the q-quantile of v by linear interpolation (NaN
// for an empty slice). It sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	x := q * float64(len(v)-1)
	i := int(x)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (x-float64(i))*(v[i+1]-v[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
