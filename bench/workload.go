package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/testbed"
)

// Fixed properties of the load generator. They are constants, not
// flags: a later commit must be measured under the same load shape.
const (
	// closedLoopWindow bounds transmissions outstanding (sent minus
	// results) in the saturate phase.
	closedLoopWindow = 16
	// latencyLimit is the paper's fix budget: a paced fix later than
	// this counts as failed.
	latencyLimit = 100 * time.Millisecond
	// drainDeadline bounds the wait for outstanding results when a
	// phase ends; what has not arrived by then counts as failed.
	drainDeadline = 10 * time.Second
	// lateSend is the generator lateness beyond which a paced send
	// counts as late; maxLateShare and maxWriteBlock are the honesty
	// limits past which a run's latency numbers are marked invalid.
	lateSend      = time.Millisecond
	maxLateShare  = 0.05
	maxWriteBlock = 100 * time.Millisecond
	// walkStep and walkDt are the waypoint spacing and the simulated
	// time between one client's transmissions (1.25 m/s).
	walkStep = 0.5
	walkDt   = 400 * time.Millisecond
	// freshDt is the simulated time between fresh-client transmissions:
	// 30 000 of them span the tracker's 30 s TTL, so sweeps run.
	freshDt = time.Millisecond
	// overheardDt spaces one overheard client's stamps so the 1 s
	// grouping window compacts its group every fifth capture.
	overheardDt = 250 * time.Millisecond
	// Bystanders take ids from 1, walkers from firstWalkID, fresh
	// clients from firstFreshID. Walkers must not start below 64:
	// cluster.ShardMap hashes ids 0..63 exactly onto shard 0's own ring
	// points, so all of them would land on one shard.
	firstWalkID  = 100
	firstFreshID = 1000
)

// workload is one traffic mix. Only quorum reaches the system under
// test; everything else shapes the frames the generator sends.
type workload struct {
	name, why string
	// sites are the AP sites (indices into Testbed.Sites) that hear
	// every fixing transmission, frames the captures each sends.
	sites  []int
	frames int
	quorum int
	// cluster routes the traffic through Router + 2 LocalShards.
	cluster bool
	// walk: a fixed set of clients ping-pongs along waypoints and is
	// tracked; otherwise every transmission is a never-seen client.
	walk bool
	// overheard is the number of sub-quorum captures each AP adds per
	// transmission.
	overheard int
	// rate is the paced phase's transmissions per second, frozen at
	// about a third of the seed's fixes_per_s on the reference box (see
	// README.md for why not more).
	rate float64
	// ref sizes the yardstick's jobs so that one takes about as long as
	// one fix of this workload, on the generator's side and on the
	// system's, and holds the yardstick's nominal numbers (refsys.go).
	ref refShape
}

var (
	allSites   = []int{0, 1, 2, 3, 4, 5}
	threeSites = []int{0, 2, 4}
)

var workloads = []workload{
	{
		name: "walk6x3", sites: allSites, frames: 3, quorum: 6, walk: true, rate: 200, ref: refShape{3, 16, 800, 2.45, 2.14},
		why: "the paper's design point: 24 tracked walkers, 6 APs x 3 frames, then served by the predictive region path; where per-AP spectrum work must show; paced 200 tx/s",
	},
	{
		name: "fresh3x1", sites: threeSites, frames: 1, quorum: 3, rate: 500, ref: refShape{3, 7, 3100, 0.632, 0.796},
		why: "device churn: every transmission a new client, 3 APs x 1 frame; no track, so full-grid synthesis and tracker inserts; spectra 3.3x cheaper; paced 500 tx/s",
	},
	{
		name: "overheard3x1", sites: threeSites, frames: 1, quorum: 3, overheard: 5, rate: 300, ref: refShape{1, 9, 1100, 1.78, 1.45},
		why: "fresh3x1 plus 15 sub-quorum captures per fix from 64 bystanders: decode, grouping, compaction and arena release dominate; paced 300 tx/s",
	},
	{
		name: "cluster2_walk6x3", sites: allSites, frames: 3, quorum: 6, walk: true, cluster: true, rate: 150, ref: refShape{3, 33, 576, 3.41, 3.06},
		why: "walk6x3's exact frames through Router and 2 LocalShards: the difference to walk6x3 is the router's decode, partition and re-encode; paced 150 tx/s",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// poolSize sizes the capture pool. The zero value selects the
// workload's full size; the smoke test shrinks it.
type poolSize struct {
	// clients and waypoints size a walk pool, positions a fresh one,
	// bystanders the overheard set.
	clients, waypoints, positions, bystanders int
}

var fullSize = poolSize{clients: 24, waypoints: 6, positions: 256, bystanders: 64}

func (w *workload) fixPositions(sz poolSize) int {
	if w.walk {
		return sz.clients * sz.waypoints
	}
	return sz.positions
}

// pool is the set of captures generated once in set-up and replayed
// with advancing client ids and timestamps.
type pool struct {
	size poolSize
	// fix[p][a] are the frames site a recorded for position p; truth[p]
	// is where the client really stood.
	fix   [][][]server.Capture
	truth []geom.Point
	// over[j] is bystander j's one capture (ClientID and APID set).
	over []server.Capture
}

// slabLen is the number of samples a pool of this shape can need.
func (w *workload) slabLen(sz poolSize) int {
	caps := w.fixPositions(sz) * len(w.sites) * w.frames
	if w.overheard > 0 {
		caps += sz.bystanders
	}
	det := server.DefaultDetector()
	return caps * (testbed.DefaultCaptureOptions().Antennas + 1) * det.CaptureLen
}

// truePositions lays the clients out on a fixed lattice, the same for
// every seed. Moving a client by centimetres re-rolls its multipath
// phases and with them its error, and a pool this size then gives a
// median error that wanders by a fifth from seed to seed; on fixed
// ground the seed still changes every sample (noise, and the clients'
// movement between frames) and the error distribution stays put.
func (w *workload) truePositions(tb *testbed.Testbed, sz poolSize) []geom.Point {
	lo, hi := tb.Plan.Min, tb.Plan.Max
	lattice := func(i, n, cols int) geom.Point {
		rows := (n + cols - 1) / cols
		fx := (float64(i%cols) + 0.5) / float64(cols)
		fy := (float64(i/cols) + 0.5) / float64(rows)
		// Keep 3 m clear of the shell so walks and jitter stay inside.
		return geom.Pt(lo.X+3+fx*(hi.X-lo.X-6), lo.Y+3+fy*(hi.Y-lo.Y-6))
	}
	if !w.walk {
		out := make([]geom.Point, sz.positions)
		for i := range out {
			out[i] = lattice(i, sz.positions, 32)
		}
		return out
	}
	out := make([]geom.Point, 0, sz.clients*sz.waypoints)
	for c := 0; c < sz.clients; c++ {
		start := lattice(c, sz.clients, 6)
		dir := geom.Vec{X: walkStep}
		if c%2 == 1 {
			dir = geom.Vec{Y: walkStep}
		}
		// Walk towards the middle of the floor.
		if start.X > (lo.X+hi.X)/2 {
			dir.X = -dir.X
		}
		if start.Y > (lo.Y+hi.Y)/2 {
			dir.Y = -dir.Y
		}
		for k := 0; k < sz.waypoints; k++ {
			out = append(out, start.Add(geom.Vec{X: dir.X * float64(k), Y: dir.Y * float64(k)}))
		}
	}
	return out
}

// genPool produces the workload's captures the way arraytrack-ap does
// (channel model, preamble detection, window extraction) into slab,
// fanned over the cores; each capture's noise stream is seeded by its
// index, so the result does not depend on scheduling.
func genPool(tb *testbed.Testbed, w *workload, sz poolSize, seed int64, slab []complex128) *pool {
	capOpt := testbed.DefaultCaptureOptions()
	capOpt.Frames = w.frames
	det := server.DefaultDetector()
	perCapture := (capOpt.Antennas + 1) * det.CaptureLen

	p := &pool{size: sz}
	p.truth = w.truePositions(tb, sz)
	p.fix = make([][][]server.Capture, len(p.truth))
	for i := range p.fix {
		p.fix[i] = make([][]server.Capture, len(w.sites))
	}
	var bystanders []geom.Point
	if w.overheard > 0 {
		p.over = make([]server.Capture, sz.bystanders)
		for j := range p.over {
			bystanders = append(bystanders, geom.Pt(tb.Plan.Min.X+2+float64(j%16)*2.3, tb.Plan.Min.Y+2.5+float64(j/16)*3.5))
		}
	}

	// record runs one client position at one site and files the
	// windows under slab[off:].
	record := func(job int, pos geom.Point, site, frames, off int) []server.Capture {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(job) + 1))
		opt := capOpt
		opt.Frames = frames
		out := make([]server.Capture, 0, frames)
		for _, f := range tb.CaptureClient(pos, tb.Sites[site], opt, rng) {
			start, ok := det.Detect(f.Streams)
			if !ok {
				start = 0 // the stream holds exactly the preamble
			}
			streams := make([][]complex128, 0, len(f.Streams))
			for _, win := range det.Extract(f.Streams, start) {
				n := copy(slab[off:], win)
				streams = append(streams, slab[off:off+n:off+n])
				off += n
			}
			out = append(out, server.Capture{APID: uint32(site + 1), Streams: streams})
		}
		return out
	}

	nFix := len(p.truth) * len(w.sites)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if job < nFix {
					pi, a := job/len(w.sites), job%len(w.sites)
					p.fix[pi][a] = record(job, p.truth[pi], w.sites[a], w.frames, job*w.frames*perCapture)
					continue
				}
				j := job - nFix
				c := record(job, bystanders[j], w.sites[j%len(w.sites)], 1, (nFix*w.frames+j)*perCapture)[0]
				c.ClientID = uint32(j + 1)
				p.over[j] = c
			}
		}()
	}
	for job := 0; job < nFix+len(p.over); job++ {
		jobs <- job
	}
	close(jobs)
	wg.Wait()
	return p
}

// tx describes one fixing transmission of the schedule.
type tx struct {
	client uint32
	pos    int // pool position
	at     time.Time
}

// schedule maps a transmission index to who sends, from where, and at
// what simulated time. Timestamps are simulated so the grouping window,
// Kalman dt and TTL see the same motion whatever the achieved rate.
func (w *workload) schedule(i int, sz poolSize, base time.Time) tx {
	if !w.walk {
		return tx{client: uint32(firstFreshID + i), pos: i % sz.positions, at: base.Add(time.Duration(i) * freshDt)}
	}
	c, round := i%sz.clients, i/sz.clients
	// Ping-pong along the waypoints, each client offset by its index so
	// the reversals (where predictions miss) do not share a round.
	wp := 0
	if period := 2*sz.waypoints - 2; period > 0 {
		wp = (round + c) % period
		if wp >= sz.waypoints {
			wp = period - wp
		}
	}
	return tx{client: uint32(firstWalkID + c), pos: c*sz.waypoints + wp, at: base.Add(time.Duration(round) * walkDt)}
}

// encoder turns schedule entries into wire bytes: one v3 frame per AP
// holding that AP's frames of the fixing client, and for overheard
// workloads one more frame per AP holding its bystanders' captures.
type encoder struct {
	w    *workload
	pool *pool
	base time.Time
	buf  []byte
	caps []server.Capture
	seq  []uint32
	// heard[j] counts bystander j's captures so far, which sets its
	// next stamp.
	heard []int
}

func newEncoder(w *workload, p *pool, base time.Time) *encoder {
	return &encoder{w: w, pool: p, base: base, seq: make([]uint32, len(w.sites)), heard: make([]int, len(p.over))}
}

// encode returns transmission i's bytes (valid until the next call),
// its schedule entry and how many captures it carries.
func (e *encoder) encode(i int) ([]byte, tx, int, error) {
	t := e.w.schedule(i, e.pool.size, e.base)
	e.buf = e.buf[:0]
	n := 0
	var err error
	for a := range e.w.sites {
		e.caps = e.caps[:0]
		for _, c := range e.pool.fix[t.pos][a] {
			c.ClientID, c.Timestamp, c.Seq = t.client, t.at, e.seq[a]
			e.seq[a]++
			e.caps = append(e.caps, c)
		}
		n += len(e.caps)
		if e.buf, err = server.AppendBatch(e.buf, e.caps); err != nil {
			return nil, t, 0, err
		}
		if e.w.overheard == 0 {
			continue
		}
		// Site a hears bystanders a, a+S, a+2S, ...; each transmission
		// takes the next few of them in turn.
		s := len(e.w.sites)
		mine := (len(e.pool.over) - a + s - 1) / s
		e.caps = e.caps[:0]
		for k := 0; k < e.w.overheard && k < mine; k++ {
			j := a + s*((i*e.w.overheard+k)%mine)
			c := e.pool.over[j]
			c.Timestamp, c.Seq = e.base.Add(time.Duration(e.heard[j])*overheardDt), e.seq[a]
			e.heard[j]++
			e.seq[a]++
			e.caps = append(e.caps, c)
		}
		n += len(e.caps)
		if e.buf, err = server.AppendBatch(e.buf, e.caps); err != nil {
			return nil, t, 0, err
		}
	}
	return e.buf, t, n, nil
}
