package testbed

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// IngestShape is one record geometry in the flood sweep.
type IngestShape struct {
	Antennas, Samples int
}

// IngestOptions sizes the ingest flood experiment: a synthetic AP
// flood is replayed through every server ingest path — the seed's
// per-record v1 loop, the pooled per-record path, v3 batch framing at
// several burst sizes, and the UDP datagram decoder — and each path's
// captures/sec/core is the median over Trials runs. Beside them, the
// same flood is encoded by server.AppendBatch and by the reference
// quantizer loop it replaced.
type IngestOptions struct {
	// Captures is the flood length per trial; a shape whose flood would
	// not fit the loopback socket buffers gets a shorter one (see
	// floodWireBudget).
	Captures int
	// Trials is the number of timed runs per mode; the median is
	// reported (loopback sockets on a shared core are noisy).
	Trials int
	// Conns is the number of sequential connections per trial; each
	// replays the full flood, so one trial serves Conns x Captures
	// records against a long-lived backend.
	Conns int
	// Shapes are the record geometries swept.
	Shapes []IngestShape
	// BatchSizes are the v3 burst sizes swept.
	BatchSizes []int
	// Clients and APs shape the flood: client IDs cycle mod Clients,
	// and each client's captures alternate across APs so quorum
	// flushes fire continuously — the steady state of a live deploy.
	Clients, APs int
	// Quorum is the backend's distinct-AP flush threshold.
	Quorum int
	// AllocRuns is the sample count for the allocs/capture measurement.
	AllocRuns int
	// Seed drives the synthetic sample streams.
	Seed int64
}

// rawShape is a raw, untrimmed capture: nine antennas by the whole
// 640-sample preamble, 23 KB on the wire. No AP ships it any more, the
// decoders still take it, and it stays in the sweep as the size the
// encode gate (ingest_encode_speedup_9x640) was calibrated on.
var rawShape = IngestShape{9, 640}

// shippedShape is the capture arraytrack-ap ships: nine antennas by the
// detector's capture window (4.6 KB on the wire).
func shippedShape() IngestShape {
	return IngestShape{9, server.DefaultDetector().CaptureLen}
}

// DefaultIngestOptions floods 4096 captures per trial across the
// paper's 8-antenna geometry, a smaller and a larger record, the
// shipped capture and a raw one.
func DefaultIngestOptions() IngestOptions {
	return IngestOptions{
		Captures:   4096,
		Trials:     5,
		Conns:      4,
		Shapes:     []IngestShape{{4, 16}, {8, 16}, {8, 64}, shippedShape(), rawShape},
		BatchSizes: []int{8, 32, 128},
		Clients:    8,
		APs:        2,
		Quorum:     2,
		AllocRuns:  10,
		Seed:       41,
	}
}

// releaseDispatcher is the flood sink: it owns each flush and returns
// the pooled buffers immediately, so the measurement isolates the
// ingest path rather than localization.
type releaseDispatcher struct{}

func (releaseDispatcher) Dispatch(_ uint32, caps []server.Capture) {
	server.ReleaseAll(caps)
}

// seedIngestState replicates the seed backend's grouping allocation
// profile — a map[uint32][]Capture pending set, a distinct-AP map
// allocated per ingest, and a fresh copy-back slice on every
// non-flush ingest — so the baseline row prices the per-record path
// this PR replaced, not today's backend with per-record framing.
type seedIngestState struct {
	mu      sync.Mutex
	pending map[uint32][]server.Capture
}

func newSeedIngestState() *seedIngestState {
	return &seedIngestState{pending: make(map[uint32][]server.Capture)}
}

func (sp *seedIngestState) ingest(c *server.Capture, quorum int, window time.Duration) {
	sp.mu.Lock()
	list := append(sp.pending[c.ClientID], *c)
	newest := list[0].Timestamp
	for _, e := range list {
		if e.Timestamp.After(newest) {
			newest = e.Timestamp
		}
	}
	fresh := list[:0]
	for _, e := range list {
		if newest.Sub(e.Timestamp) <= window {
			fresh = append(fresh, e)
		}
	}
	aps := make(map[uint32]bool)
	for _, e := range fresh {
		aps[e.APID] = true
	}
	if len(aps) >= quorum {
		delete(sp.pending, c.ClientID)
		sp.mu.Unlock()
		return
	}
	sp.pending[c.ClientID] = append([]server.Capture(nil), fresh...)
	sp.mu.Unlock()
}

// floodWireBudget caps one connection's flood on the wire: the TCP
// modes prefill the loopback socket buffers before the clock starts
// (~16 MB effective), and a flood that does not fit puts the producer
// back on the measured core.
const floodWireBudget = 12 << 20

// ingestFlood synthesizes the capture flood: timestamps advance
// monotonically and each client is heard by opt.APs access points in
// turn, so a quorum of opt.Quorum flushes on schedule.
func ingestFlood(opt IngestOptions, shape IngestShape) []server.Capture {
	rng := rand.New(rand.NewSource(opt.Seed))
	n := min(opt.Captures, floodWireBudget/server.RecordSize(shape.Antennas, shape.Samples))
	caps := make([]server.Capture, n)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := range caps {
		streams := make([][]complex128, shape.Antennas)
		for a := range streams {
			row := make([]complex128, shape.Samples)
			for s := range row {
				row[s] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			streams[a] = row
		}
		caps[i] = server.Capture{
			APID:      uint32(1 + (i/opt.Clients)%opt.APs),
			ClientID:  uint32(i % opt.Clients),
			Seq:       uint32(i),
			Timestamp: base.Add(time.Duration(i) * 100 * time.Microsecond),
			Streams:   streams,
		}
	}
	return caps
}

// serializeRecords encodes the flood as back-to-back v1 records using
// the pooled append-path writer.
func serializeRecords(caps []server.Capture) []byte {
	var buf []byte
	for i := range caps {
		b, err := server.AppendCapture(buf, &caps[i])
		if err != nil {
			panic(err)
		}
		buf = b
	}
	return buf
}

// serializeBatches encodes the flood as v3 batch frames of n captures.
func serializeBatches(caps []server.Capture, n int) []byte {
	var buf []byte
	for i := 0; i < len(caps); i += n {
		end := i + n
		if end > len(caps) {
			end = len(caps)
		}
		b, err := server.AppendBatch(buf, caps[i:end])
		if err != nil {
			panic(err)
		}
		buf = b
	}
	return buf
}

// encodeModes returns the two encode rows for a flood: the reference
// quantizer loop the encoders ran before the guarded kernel
// (server.ReferencePayload) over every capture, and server.AppendBatch
// in frames of batch captures into a reused buffer. Both scan for the
// peak the same way and write the same payload bytes
// (TestQuantizerMatchesReference pins that). Each trial makes conns
// passes so its capture count matches the decode rows'.
func encodeModes(caps []server.Capture, conns, batch int) (ref, v3 *ingestMode) {
	payload := make([]byte, 4*len(caps[0].Streams)*len(caps[0].Streams[0]))
	ref = &ingestMode{name: "encode reference", trial: func() (time.Duration, error) {
		start := time.Now()
		for c := 0; c < conns; c++ {
			for i := range caps {
				if err := server.ReferencePayload(payload, caps[i].Streams); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}}
	var buf []byte
	v3 = &ingestMode{name: fmt.Sprintf("encode batch %d", batch), trial: func() (time.Duration, error) {
		start := time.Now()
		for c := 0; c < conns; c++ {
			for i := 0; i < len(caps); i += batch {
				var err error
				if buf, err = server.AppendBatch(buf[:0], caps[i:min(i+batch, len(caps))]); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}}
	return ref, v3
}

// serializeDatagrams packs the flood into batch-frame datagrams, each
// holding as many captures as fit under the UDP payload ceiling (at
// most batch captures per datagram).
func serializeDatagrams(caps []server.Capture, batch int) [][]byte {
	var grams [][]byte
	i := 0
	for i < len(caps) {
		end := i
		for end < len(caps) && end-i < batch {
			if end > i && server.BatchFrameSize(caps[i:end+1]) > server.MaxDatagramBytes {
				break
			}
			end++
		}
		g, err := server.AppendBatch(nil, caps[i:end])
		if err != nil {
			panic(err)
		}
		grams = append(grams, g)
		i = end
	}
	return grams
}

// udpSocketFlood is the honest end-to-end UDP measurement: a real
// loopback PacketConn served by Backend.ServeUDP on its own goroutine
// while a sender goroutine floods datagrams from a second socket,
// flat out, with no pacing. Unlike the direct IngestDatagram mode it
// prices the kernel round-trip and admits packet loss: received is
// the backend's settled capture count (UDP().Captures delta), not the
// send count, and the caller reports the difference. The clock runs
// from the first send until the receiver quiesces.
func udpSocketFlood(grams [][]byte, conns int, quorum int, window time.Duration) (received uint64, elapsed time.Duration, err error) {
	be := server.NewBackendDispatcher(quorum, window, releaseDispatcher{})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		uc.SetReadBuffer(4 << 20)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = be.ServeUDP(ctx, pc)
	}()
	defer func() { cancel(); <-served }()

	tx, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		return 0, 0, err
	}
	defer tx.Close()
	start := time.Now()
	for c := 0; c < conns; c++ {
		for _, g := range grams {
			if _, err := tx.Write(g); err != nil {
				return 0, 0, err
			}
		}
	}
	// Quiesce: the receiver has caught up (or dropped the rest) once
	// the settled counter stops moving.
	last := be.UDP().Captures
	lastMove := time.Now()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if n := be.UDP().Captures; n != last {
			last, lastMove = n, time.Now()
		} else if time.Since(lastMove) > 50*time.Millisecond {
			break
		}
	}
	return last, lastMove.Sub(start), nil
}

// floodTCP replays data over a loopback TCP connection and times
// serve, which must consume the stream to EOF. Both socket buffers
// are raised to the host ceiling so a 4096-capture flood sits wholly
// in the kernel by the time serving is underway: the timed section
// then prices the server's ingest stack (syscalls, decode, grouping),
// not the producer goroutine sharing the core.
func floodTCP(data []byte, serve func(conn net.Conn) error) (time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	written := make(chan struct{})
	go func() {
		defer close(written)
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(4 << 20)
		}
		c.Write(data)
		c.Close()
	}()
	conn, err := l.Accept()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 20)
	}
	// Let the producer hand the whole flood to the kernel before the
	// clock starts (the floods above fit the send+receive buffers), and
	// give the loopback transfer a moment to drain across. The timeout
	// keeps an oversized flood from deadlocking against a parked reader.
	select {
	case <-written:
		time.Sleep(2 * time.Millisecond)
	case <-time.After(100 * time.Millisecond):
	}
	start := time.Now()
	err = serve(conn)
	return time.Since(start), err
}

// floodTCPTrial replays the flood over conns sequential connections
// and sums the serve times.
func floodTCPTrial(data []byte, conns int, serve func(conn net.Conn) error) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < conns; i++ {
		el, err := floodTCP(data, serve)
		if err != nil {
			return 0, err
		}
		total += el
	}
	return total, nil
}

type ingestMode struct {
	name  string
	trial func() (time.Duration, error)
	times []time.Duration
}

// runModes measures every mode's captures/sec as the median over
// trials. Trials are interleaved round-robin across the modes — with
// one discarded warm-up sweep first — so slow periods on a shared
// host spread across all modes instead of biasing whichever block
// they land on, keeping the reported ratios stable.
func runModes(modes []*ingestMode, trials int) error {
	for t := 0; t <= trials; t++ {
		for _, m := range modes {
			el, err := m.trial()
			if err != nil {
				return err
			}
			if t > 0 { // sweep 0 is the warm-up
				m.times = append(m.times, el)
			}
		}
	}
	return nil
}

func (m *ingestMode) cps(captures int) float64 {
	rates := make([]float64, len(m.times))
	for i, el := range m.times {
		rates[i] = float64(captures) / el.Seconds()
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// RunIngest floods every server ingest path and reports captures/sec
// per core, the batch-vs-seed speedup, and steady-state allocations
// per capture. The baseline row replays the seed's per-record v1
// path verbatim: one framed read per capture, field-by-field decode
// with three fresh allocations per record, and map-allocating
// grouping. Batch rows stream v3 frames through the pooled decoder
// into the backend.
func (tb *Testbed) RunIngest(opt IngestOptions) (*Report, error) {
	r := &Report{ID: "ingest", Title: "batched zero-copy ingest vs the seed per-record path"}
	window := time.Hour

	shapeTag := func(sh IngestShape) string { return fmt.Sprintf("%dx%d", sh.Antennas, sh.Samples) }

	var speedup8x16 float64
	for _, sh := range opt.Shapes {
		caps := ingestFlood(opt, sh)
		recordStream := serializeRecords(caps)

		// Seed baseline: allocating per-record reads + map grouping.
		modes := []*ingestMode{{name: "seed v1/record", trial: func() (time.Duration, error) {
			sp := newSeedIngestState()
			return floodTCPTrial(recordStream, opt.Conns, func(conn net.Conn) error {
				for {
					c, err := server.ReadCapture(conn)
					if err != nil {
						return nil
					}
					sp.ingest(c, opt.Quorum, window)
				}
			})
		}}}

		// Pooled per-record path: same wire format, pooled decode and
		// the current backend.
		modes = append(modes, &ingestMode{name: "pooled v1/record", trial: func() (time.Duration, error) {
			be := server.NewBackendDispatcher(opt.Quorum, window, releaseDispatcher{})
			return floodTCPTrial(recordStream, opt.Conns, func(conn net.Conn) error { return be.ServeConn(conn) })
		}})

		for _, bs := range opt.BatchSizes {
			batchStream := serializeBatches(caps, bs)
			modes = append(modes, &ingestMode{name: fmt.Sprintf("batch %d", bs), trial: func() (time.Duration, error) {
				be := server.NewBackendDispatcher(opt.Quorum, window, releaseDispatcher{})
				return floodTCPTrial(batchStream, opt.Conns, func(conn net.Conn) error { return be.ServeConn(conn) })
			}})
		}

		// UDP datagram path: the decoder+backend cost of ServeUDP,
		// driven directly so a flooding sender on a shared core cannot
		// starve the reader out of the measurement.
		grams := serializeDatagrams(caps, 32)
		modes = append(modes, &ingestMode{name: "udp batch 32", trial: func() (time.Duration, error) {
			be := server.NewBackendDispatcher(opt.Quorum, window, releaseDispatcher{})
			start := time.Now()
			for c := 0; c < opt.Conns; c++ {
				for _, g := range grams {
					if err := be.IngestDatagram(g); err != nil {
						return 0, err
					}
				}
			}
			return time.Since(start), nil
		}})

		if err := runModes(modes, opt.Trials); err != nil {
			return nil, err
		}
		// The encode rows run on their own, after the decode floods'
		// garbage is collected: a concurrent mark phase halves them.
		encRef, encV3 := encodeModes(caps, opt.Conns, 32)
		runtime.GC()
		if err := runModes([]*ingestMode{encRef, encV3}, opt.Trials); err != nil {
			return nil, err
		}

		perTrial := opt.Conns * len(caps)
		seedCPS := modes[0].cps(perTrial)
		r.AddMetric("ingest_cps_seed_"+shapeTag(sh), seedCPS, "caps/s")
		r.AddMetric("ingest_cps_pooled_"+shapeTag(sh), modes[1].cps(perTrial), "caps/s")
		for i, bs := range opt.BatchSizes {
			cps := modes[2+i].cps(perTrial)
			r.AddMetric(fmt.Sprintf("ingest_cps_batch%d_%s", bs, shapeTag(sh)), cps, "caps/s")
			if sh == (IngestShape{8, 16}) && bs == 32 {
				speedup8x16 = cps / seedCPS
			}
		}
		r.AddMetric("ingest_cps_udp32_"+shapeTag(sh), modes[len(modes)-1].cps(perTrial), "caps/s")

		r.Addf("%d ant x %d samples (%d captures x %d conns, median of %d interleaved trials):",
			sh.Antennas, sh.Samples, len(caps), opt.Conns, opt.Trials)
		for _, m := range modes {
			cps := m.cps(perTrial)
			r.Addf("  %-18s %9.0f caps/s/core   %5.2fx", m.name, cps, cps/seedCPS)
		}
		encRefCPS, encCPS := encRef.cps(perTrial), encV3.cps(perTrial)
		r.AddMetric("ingest_encode_cps_reference_"+shapeTag(sh), encRefCPS, "caps/s")
		r.AddMetric("ingest_encode_cps_"+shapeTag(sh), encCPS, "caps/s")
		r.AddMetric("ingest_encode_speedup_"+shapeTag(sh), encCPS/encRefCPS, "x")
		r.Addf("  %-18s %9.0f caps/s/core", encRef.name, encRefCPS)
		r.Addf("  %-18s %9.0f caps/s/core   %5.2fx the reference loop", encV3.name, encCPS, encCPS/encRefCPS)
	}

	// Socket-level UDP flood at the paper geometry: ServeUDP on a real
	// loopback socket against an unpaced sender. The rate is computed
	// from captures the backend actually settled, and drops are
	// reported, not hidden — fire-and-forget ingest that loses packets
	// should say so. The sender and server need separate cores to mean
	// anything: on a single-proc runner the flood measures the Go
	// scheduler's context switches, so it is skipped with a note.
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		r.Addf("udp socket flood: skipped (GOMAXPROCS=%d; sender and ServeUDP would share one core and the rate would price the scheduler, not the ingest path)", procs)
	} else {
		sockShape := IngestShape{8, 16}
		sockCaps := ingestFlood(opt, sockShape)
		grams := serializeDatagrams(sockCaps, 32)
		sent := uint64(opt.Conns * len(sockCaps))
		var rates []float64
		var worstLoss float64
		for t := 0; t <= opt.Trials; t++ {
			got, el, err := udpSocketFlood(grams, opt.Conns, opt.Quorum, window)
			if err != nil {
				return nil, err
			}
			if t == 0 || el <= 0 { // sweep 0 is the warm-up
				continue
			}
			rates = append(rates, float64(got)/el.Seconds())
			if loss := 100 * float64(sent-got) / float64(sent); loss > worstLoss {
				worstLoss = loss
			}
		}
		sort.Float64s(rates)
		sockCPS := rates[len(rates)/2]
		r.AddMetric("ingest_cps_udpsock_8x16", sockCPS, "caps/s")
		r.AddMetric("ingest_udpsock_worst_loss_pct", worstLoss, "%")
		r.Addf("udp socket flood at 8x16 (batch 32, %d captures x %d bursts, unpaced loopback sender): %9.0f caps/s settled, worst-trial loss %.2f%%",
			len(sockCaps), opt.Conns, sockCPS, worstLoss)
	}

	// Steady-state allocations per capture, in-memory so the socket
	// layer cannot hide or add heap traffic. The batch path reuses one
	// bufio reader across runs, as one long-lived AP connection would.
	allocShape := IngestShape{8, 16}
	allocCaps := ingestFlood(opt, allocShape)
	batchStream := serializeBatches(allocCaps, 32)
	be := server.NewBackendDispatcher(opt.Quorum, window, releaseDispatcher{})
	rd := bytes.NewReader(batchStream)
	br := bufio.NewReaderSize(rd, 256<<10)
	batchAllocs := allocsPerRun(opt.AllocRuns, func() {
		rd.Reset(batchStream)
		br.Reset(rd)
		if err := be.ServeConn(br); err != nil {
			panic(err)
		}
	}) / float64(len(allocCaps))

	recordStream := serializeRecords(allocCaps)
	seedAllocs := allocsPerRun(opt.AllocRuns, func() {
		sp := newSeedIngestState()
		rd := bytes.NewReader(recordStream)
		for {
			c, err := server.ReadCapture(rd)
			if err != nil {
				break
			}
			sp.ingest(c, opt.Quorum, window)
		}
	}) / float64(len(allocCaps))

	r.AddMetric("ingest_speedup_8x16", speedup8x16, "x")
	r.AddMetric("ingest_allocs_batch32_8x16", batchAllocs, "allocs/capture")
	r.AddMetric("ingest_allocs_seed_8x16", seedAllocs, "allocs/capture")
	r.Addf("allocs/capture at 8x16 steady state: batch32 %.2f, seed per-record %.2f", batchAllocs, seedAllocs)
	r.Addf("batch32 vs seed per-record at 8x16: %.2fx captures/sec/core", speedup8x16)
	return r, nil
}
