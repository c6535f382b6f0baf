package testbed

import (
	"context"
	"math"
	"math/rand"
	"net"
	"sort"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wifi"
)

// RunCollision regenerates the §4.3.5 experiment: two clients collide,
// with the second frame's preamble starting while the first frame's
// body is still on the air. Successive interference cancellation
// recovers both AoAs: the first preamble is clean; the second spectrum
// contains both transmitters' bearings, and removing the first packet's
// peaks isolates the second's.
func (tb *Testbed) RunCollision(seed int64) (*Report, error) {
	rng := rand.New(rand.NewSource(seed))
	site := tb.Sites[0]
	capOpt := DefaultCaptureOptions()
	arr := tb.NewArray(site, capOpt)

	c1 := geom.Pt(site.Pos.X+7, site.Pos.Y+3)
	c2 := geom.Pt(site.Pos.X-3, site.Pos.Y+8)
	truth1 := site.Pos.Bearing(c1)
	truth2 := site.Pos.Bearing(c2)

	// Client 1: preamble followed by a random-QPSK body. Client 2:
	// preamble starting mid-body of client 1.
	preamble := wifi.Preamble40()
	body := make([]complex128, 4000)
	for i := range body {
		body[i] = qpsk(rng)
	}
	sig1 := append(append([]complex128{}, preamble...), body...)
	const offset = 2000 // samples into sig1 when client 2 starts

	rx1 := tb.Model.Receive(c1, arr, sig1, channel.RxConfig{
		TxPowerDBm: capOpt.TxPowerDBm, NoiseFloorDBm: capOpt.NoiseFloorDBm, Rng: rng,
	})
	rx2 := tb.Model.Receive(c2, arr, preamble, channel.RxConfig{
		TxPowerDBm: capOpt.TxPowerDBm, NoiseFloorDBm: -200, Rng: nil,
	})
	// Superpose client 2 shifted by offset.
	combined := make([][]complex128, len(rx1.Samples))
	for k := range combined {
		st := append([]complex128{}, rx1.Samples[k]...)
		for i, v := range rx2.Samples[k] {
			if offset+i < len(st) {
				st[offset+i] += v
			}
		}
		combined[k] = st
	}

	opt := tb.spectrumOptions()
	// Spectrum 1: from the first packet's preamble (clean region).
	s1, err := music.ComputeSpectrumWS(nil, arr, sliceStreams(combined[:arr.N], 0, len(preamble)), opt)
	if err != nil {
		return nil, err
	}
	// Spectrum 2: from the second packet's preamble region, polluted by
	// packet 1's body.
	s2, err := music.ComputeSpectrumWS(nil, arr, sliceStreams(combined[:arr.N], offset, len(preamble)), opt)
	if err != nil {
		return nil, err
	}
	// SIC: remove packet 1's bearings from spectrum 2.
	var bearings1 []float64
	for _, p := range s1.Peaks(core.DefaultPeakFloor) {
		bearings1 = append(bearings1, p.Theta)
	}
	s2clean := core.RemovePeaksNear(s2, bearings1, 8)

	r := &Report{ID: "collision", Title: "colliding transmissions, successive interference cancellation"}
	r.Addf("client 1 true bearing %.0f°, client 2 true bearing %.0f°", geom.Deg(truth1), geom.Deg(truth2))
	r.Addf("packet 1 spectrum peaks:   %s", describePeaks(s1, 0.1))
	r.Addf("packet 2 combined peaks:   %s", describePeaks(s2, 0.1))
	r.Addf("packet 2 after SIC:        %s", describePeaks(s2clean, 0.1))
	r.Addf("packet 1 AoA error %.1f°, packet 2 AoA error after SIC %.1f°",
		peakErrorDeg(s1, truth1), peakErrorDeg(s2clean, truth2))
	return r, nil
}

func qpsk(rng *rand.Rand) complex128 {
	re := 1.0
	if rng.Intn(2) == 0 {
		re = -1
	}
	im := 1.0
	if rng.Intn(2) == 0 {
		im = -1
	}
	return complex(re/math.Sqrt2, im/math.Sqrt2)
}

func sliceStreams(streams [][]complex128, start, n int) [][]complex128 {
	out := make([][]complex128, len(streams))
	for k, st := range streams {
		end := start + n
		if end > len(st) {
			end = len(st)
		}
		out[k] = st[start:end]
	}
	return out
}

// latencyFixes is how many upload rounds RunLatency times for Tt and
// how many warm six-AP fixes it times for Tp.
const latencyFixes = 31

// RunLatency regenerates the §4.4 latency budget: detection time (Td),
// sample serialization over a real loopback TCP link (Tt), and
// server-side processing (Tp) for a full six-AP location estimate.
func (tb *Testbed) RunLatency(seed int64) (*Report, error) {
	rng := rand.New(rand.NewSource(seed))
	capOpt := DefaultCaptureOptions()
	client := tb.Clients[20]

	// Capture at all six APs, cut to the window each one ships.
	var captures [][]core.FrameCapture
	aps := tb.APsFor([]int{0, 1, 2, 3, 4, 5}, capOpt)
	for _, site := range tb.Sites {
		captures = append(captures, Cut(tb.CaptureClient(client, site, capOpt, rng)))
	}

	// Td: preamble detection needs the 16 µs of training symbols.
	td := 16 * time.Microsecond

	// Tt: ship each AP's 10-sample × (8+1)-antenna captures over
	// loopback TCP, one connection per AP, and measure wall-clock
	// serialization until the backend groups all six. latencyFixes
	// rounds, each under a fresh client ID so it forms its own quorum
	// group, give Tt as their median and quartiles.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	received := make(chan int, 1)
	backend := server.NewBackendDispatcher(6, time.Second, server.DispatchFunc(func(_ uint32, cs []server.Capture) {
		received <- len(cs)
		server.ReleaseAll(cs)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go backend.Serve(ctx, l)

	dial := func(context.Context) (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	var grouped int
	tts := make([]float64, latencyFixes)
	for round := range tts {
		start := time.Now()
		for i := range tb.Sites {
			n := server.NewAPNode(uint32(i+1), 8)
			for _, f := range captures[i] {
				n.Record(uint32(round+1), time.Now(), f.Streams)
			}
			if err := n.Upload(ctx, dial, server.UploadOptions{Batch: len(captures[i])}); err != nil {
				return nil, err
			}
		}
		select {
		case grouped = <-received:
		case <-time.After(5 * time.Second):
			return nil, context.DeadlineExceeded
		}
		tts[round] = float64(time.Since(start))
	}
	tt, ttQ1, ttQ3 := medianQuartiles(tts)

	// Tp: spectra for six APs plus grid synthesis and hill climbing, as
	// a warm backend serves them. One untimed fix on the same captures
	// first builds the shared steering tables and synthesis LUTs, so
	// the row does not depend on what ran earlier in the process; then
	// latencyFixes timed fixes give Tp as their median and quartiles,
	// steady enough to tell two builds apart.
	cfg := core.DefaultConfig(tb.Wavelength)
	pos, _, err := core.LocateClient(aps, captures, tb.Plan.Min, tb.Plan.Max, cfg)
	if err != nil {
		return nil, err
	}
	tps := make([]float64, latencyFixes)
	for i := range tps {
		startP := time.Now()
		if _, _, err := core.LocateClient(aps, captures, tb.Plan.Min, tb.Plan.Max, cfg); err != nil {
			return nil, err
		}
		tps[i] = float64(time.Since(startP))
	}
	tp, q1, q3 := medianQuartiles(tps)

	lat := server.Latency{Detection: td, Transfer: tt, Processing: tp}
	r := &Report{ID: "latency", Title: "end-to-end latency budget (§4.4)"}
	r.Addf("captures grouped at backend: %d (6 APs × 3 frames)", grouped)
	r.Addf("Td (detection)            %12v", lat.Detection)
	r.Addf("Tt (transfer, loopback)   %12v   (median of %d upload rounds, q1–q3 %v–%v)", lat.Transfer, latencyFixes, ttQ1, ttQ3)
	r.Addf("Tp (processing+synthesis) %12v   (median of %d warm fixes, q1–q3 %v–%v)", lat.Processing, latencyFixes, q1, q3)
	r.Addf("total after packet end    %12v   (paper: ≈100 ms on 2011 hardware)", lat.Total())
	// At 1 Mbit/s a bit takes a microsecond; a sample is 32 bits.
	ant, samp := len(captures[0][0].Streams), len(captures[0][0].Streams[0])
	r.Addf("modelled Tt on 1 Mbit/s WARP link, the %d x %d capture shipped: %v of samples, %v framed (paper, 8 radios x 10 samples: 2.56ms)",
		ant, samp, time.Duration(32*ant*samp)*time.Microsecond, server.TransferTime(ant, samp, 1))
	r.Addf("location error %.0f cm", pos.Dist(client)*100)
	return r, nil
}

// medianQuartiles sorts durations (in nanoseconds) and returns their
// median, first and third quartiles.
func medianQuartiles(ns []float64) (med, q1, q3 time.Duration) {
	sort.Float64s(ns)
	return time.Duration(stats.Percentile(ns, 50)),
		time.Duration(stats.Percentile(ns, 25)), time.Duration(stats.Percentile(ns, 75))
}

// RunHeightError regenerates Appendix A: the percentage error in the
// antenna-pair distance differential caused by an AP–client height
// difference, closed form (1/cos φ − 1) versus the simulator's actual
// path stretching.
func (tb *Testbed) RunHeightError() (*Report, error) {
	r := &Report{ID: "heighterr", Title: "height-difference error model (Appendix A)"}
	r.Addf("%8s %8s %12s %12s", "h (m)", "d (m)", "closed form", "simulated")
	for _, c := range []struct{ h, d float64 }{{1.5, 5}, {1.5, 10}} {
		closed := 1/math.Cos(math.Atan2(c.h, c.d)) - 1
		m := &channel.Model{Wavelength: tb.Wavelength}
		flat := m.Paths(geom.Pt(0, 0), geom.Pt(c.d, 0), 0)[0].Length
		high := m.Paths(geom.Pt(0, 0), geom.Pt(c.d, 0), c.h)[0].Length
		sim := high/flat - 1
		r.Addf("%8.1f %8.0f %11.1f%% %11.1f%%", c.h, c.d, closed*100, sim*100)
	}
	return r, nil
}

// RunAblation quantifies each design choice DESIGN.md calls out: the
// full pipeline versus single-knob variants (no weighting, no
// suppression, no symmetry removal, NG ∈ {1,2,3}, no forward-backward
// averaging), at a fixed AP count, all over one draw of the captures.
// The results are the variants', in the report's row order.
func (tb *Testbed) RunAblation(opt AccuracyOptions) (*Report, []*AccuracyResult, error) {
	variants := []variant{
		{name: "full pipeline"},
		{name: "no geometry weighting", config: func(c *core.Config) { c.UseWeighting = false }},
		{name: "no multipath suppression", config: func(c *core.Config) { c.UseSuppression = false }},
		{name: "no symmetry removal", config: func(c *core.Config) { c.UseSymmetryRemoval = false }},
		{name: "no forward-backward", config: func(c *core.Config) { c.ForwardBackward = false }},
		{name: "NG=1 (no smoothing)", config: func(c *core.Config) { c.SmoothingGroups = 1 }},
		{name: "NG=3", config: func(c *core.Config) { c.SmoothingGroups = 3 }},
		{name: "unoptimized (all off)", config: func(c *core.Config) { *c = core.UnoptimizedConfig(c.Wavelength) }},
	}
	res, err := tb.runVariants(opt, variants)
	if err != nil {
		return nil, nil, err
	}
	r := &Report{ID: "ablation", Title: "pipeline ablations"}
	r.Addf("%-28s %8s %8s   (APs=%v)", "variant", "median", "mean", opt.APCounts)
	for i, v := range variants {
		var all []float64
		for _, k := range opt.APCounts {
			all = append(all, res[i].ErrorsCM[k]...)
		}
		s := stats.Summarize(all)
		r.Addf("%-28s %7.0fcm %7.0fcm", v.name, s.Median, s.Mean)
	}
	return r, res, nil
}
