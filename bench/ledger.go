package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/music"
	"repro/internal/server"
	"repro/internal/testbed"
)

// ledger is the outside-in cost of each layer: every number is the
// median, over a fixed sample of the workload's own transmissions, of
// the time one goroutine spends in a call to a public function of that
// layer, on captures decoded from the same wire bytes the socket path
// carries. Times are at reference speed: divided by Slow, the mean of a
// calibration before the pass and one after.
type ledger struct {
	Slow float64
	// Per capture.
	EncodeUS, DecodeUS, GroupUS, RouteUS float64
	DecodeAllocs                         float64
	// Per frame, per AP.
	FrameSpectrumUS, CombineAPUS float64
	// Per fix.
	ProcessAPsUS, SynthFullUS, SynthRegionUS float64
	LocateUS, LocateAllocs, TrackUS          float64
	WireBytes, Captures                      float64
}

// releaser is the no-op dispatcher of the grouping measurement: it
// only gives the flush's buffers back.
type releaser struct{}

func (releaser) Dispatch(_ uint32, caps []server.Capture) { server.ReleaseAll(caps) }

const ledgerWarmTxs = 8

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ledgerPass(tb *testbed.Testbed, w *workload, o options, p *pool) (*ledger, error) {
	cfg := core.DefaultConfig(tb.Wavelength)
	// The stages are timed as an engine worker runs them: engine.New
	// clamps a batch job's per-AP and synthesis fan-out to one goroutine,
	// and a fan-out here would report wall time for what is CPU time.
	staged := cfg
	staged.APWorkers, staged.SynthWorkers = 1, 1
	pipe := core.NewPipeline(staged)
	resolve := newResolver(tb)
	lo, hi := tb.Plan.Min, tb.Plan.Max
	base := time.Now().Add(-time.Hour).Truncate(time.Microsecond)
	enc := newEncoder(w, p, base)

	backend := server.NewBackendDispatcher(w.quorum, groupWindow, releaser{})
	defer func() { server.ReleaseAll(backend.ExtractPending(backend.PendingClientIDs())) }()
	m, err := cluster.NewShardMap(1, 2, 0)
	if err != nil {
		return nil, err
	}
	router, err := cluster.NewRouter(m, []cluster.Shard{{Data: io.Discard}, {Data: io.Discard}})
	if err != nil {
		return nil, err
	}
	// regionTracker only ever supplies predictions; the engine gets its
	// own so that what it learns does not leak into them.
	regionTracker := engine.NewTracker(engine.TrackerOptions{TTL: trackTTL})
	engTracker := engine.NewTracker(engine.TrackerOptions{TTL: trackTTL})
	eng := engine.New(engineOptions(cfg, 0, engTracker))
	defer eng.Close()
	// settle gives a tracker the history a long-lived client has: ten
	// fixes on the spot, one walkDt apart, the last one walkDt ago.
	settle := func(tr *engine.Tracker, t tx) time.Duration {
		t0 := time.Now()
		for k := 10; k >= 1; k-- {
			tr.ObserveFix(t.client, p.truth[t.pos], t.at.Add(-time.Duration(k)*walkDt), false)
		}
		return time.Since(t0) / 10
	}

	var s struct {
		encode, decode, group, route, decodeAllocs []float64
		frame, combine                             []float64
		process, synthFull, synthRegion            []float64
		locate, locateAllocs, track                []float64
		bytes, captures                            []float64
	}
	one := func(i int) error {
		t0 := time.Now()
		buf, t, nc, err := enc.encode(i)
		if err != nil {
			return err
		}
		encode := time.Since(t0)

		// server: decode, then group into a releasing dispatcher.
		var frames [][]server.Capture
		rd := bytes.NewReader(buf)
		m0 := mallocs()
		t0 = time.Now()
		for {
			ws := server.GetIngestWorkspace()
			caps, err := server.ReadFrameInto(rd, ws)
			if err != nil {
				ws.Discard()
				if errors.Is(err, io.EOF) {
					break
				}
				return err
			}
			frames = append(frames, caps)
		}
		decode := time.Since(t0)
		decodeAllocs := mallocs() - m0
		t0 = time.Now()
		for _, caps := range frames {
			backend.IngestBatch(caps)
		}
		group := time.Since(t0)

		// cluster: decode, partition by owner, re-encode per shard.
		t0 = time.Now()
		if err := router.ServeConn(bytes.NewReader(buf)); err != nil {
			return err
		}
		route := time.Since(t0)

		// music and core, stage by stage, then as the engine calls them.
		aps, fcs, release, err := decodeFix(bytes.NewReader(buf), t.client, resolve)
		if err != nil {
			return err
		}
		defer release()
		ws := music.SharedWorkspacePool().Get()
		var frame, combine time.Duration
		nFrames := 0
		for k, ap := range aps {
			spectra := make([]*music.Spectrum, 0, len(fcs[k]))
			for _, f := range fcs[k] {
				t0 = time.Now()
				sp, err := pipe.FrameSpectrum(ws, ap, f)
				frame += time.Since(t0)
				if err != nil {
					return err
				}
				spectra = append(spectra, sp)
				nFrames++
			}
			t0 = time.Now()
			_, err := pipe.CombineAP(ws, ap, fcs[k], spectra)
			combine += time.Since(t0)
			if err != nil {
				return err
			}
		}
		music.SharedWorkspacePool().Put(ws)

		t0 = time.Now()
		specs, err := pipe.ProcessAPs(aps, fcs)
		process := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = pipe.Synthesize(specs, lo, hi)
		synthFull := time.Since(t0)
		if err != nil {
			return err
		}
		ghost := t
		ghost.client += 1 << 30 // a track of its own per sampled transmission
		track := settle(regionTracker, ghost)
		pred, ok := regionTracker.Predict(ghost.client, t.at, engine.DefaultPredictMinFixes)
		if !ok {
			return errors.New("settled tracker gave no prediction")
		}
		region := engine.PredictRegion(pred, eng.PredictSigma(), cfg.GridCell)
		t0 = time.Now()
		_, _, err = pipe.SynthesizeRegionInterior(specs, lo, hi, region)
		synthRegion := time.Since(t0)
		if err != nil {
			return err
		}

		// engine: one job at a time through the pool. A walker is a
		// long-lived client, so it arrives with a track.
		if w.walk {
			if _, ok := engTracker.Predict(t.client, t.at, engine.DefaultPredictMinFixes); !ok {
				settle(engTracker, t)
			}
		}
		m0 = mallocs()
		t0 = time.Now()
		r := eng.Locate(engine.Request{ClientID: t.client, APs: aps, Captures: fcs, Min: lo, Max: hi, Time: t.at})
		locate := time.Since(t0)
		locateAllocs := mallocs() - m0
		if r.Err != nil {
			return r.Err
		}

		if i < ledgerWarmTxs {
			return nil
		}
		n := float64(nc)
		s.encode = append(s.encode, us(encode)/n)
		s.decode = append(s.decode, us(decode)/n)
		s.decodeAllocs = append(s.decodeAllocs, float64(decodeAllocs)/n)
		s.group = append(s.group, us(group)/n)
		s.route = append(s.route, us(route)/n)
		s.frame = append(s.frame, us(frame)/float64(nFrames))
		s.combine = append(s.combine, us(combine)/float64(len(aps)))
		s.process = append(s.process, us(process))
		s.synthFull = append(s.synthFull, us(synthFull))
		s.synthRegion = append(s.synthRegion, us(synthRegion))
		s.locate = append(s.locate, us(locate))
		s.locateAllocs = append(s.locateAllocs, float64(locateAllocs))
		s.track = append(s.track, us(track))
		s.bytes = append(s.bytes, float64(len(buf)))
		s.captures = append(s.captures, n)
		return nil
	}
	slow := calibrate()
	for i := 0; i < ledgerWarmTxs+o.ledgerTxs; i++ {
		if err := one(i); err != nil {
			return nil, err
		}
	}
	slow = (slow + calibrate()) / 2
	t := func(v []float64) float64 { return median(v) / slow }
	return &ledger{
		Slow:     slow,
		EncodeUS: t(s.encode), DecodeUS: t(s.decode), GroupUS: t(s.group), RouteUS: t(s.route),
		DecodeAllocs:    median(s.decodeAllocs),
		FrameSpectrumUS: t(s.frame), CombineAPUS: t(s.combine),
		ProcessAPsUS: t(s.process), SynthFullUS: t(s.synthFull), SynthRegionUS: t(s.synthRegion),
		LocateUS: t(s.locate), LocateAllocs: median(s.locateAllocs), TrackUS: t(s.track),
		WireBytes: median(s.bytes), Captures: median(s.captures),
	}, nil
}
