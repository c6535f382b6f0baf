package testbed

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/server"
)

// delayed returns the frames as an AP would hold them had it detected
// each frame delay samples into its buffer, with the stream ending after
// n samples of the frame: delay leading zeros, then the first n samples.
func delayed(frames []core.FrameCapture, delay, n int) []core.FrameCapture {
	out := make([]core.FrameCapture, len(frames))
	for i, f := range frames {
		out[i].Streams = make([][]complex128, len(f.Streams))
		for k, st := range f.Streams {
			out[i].Streams[k] = make([]complex128, delay+n)
			copy(out[i].Streams[k][delay:], st[:n])
		}
	}
	return out
}

// TestTruncatedFramesLocateIdentically is the capture window's
// metamorphic pin, no ground truth needed: the AP's cut counts Offset
// from the detected start and reads nothing past the window, so frames
// detected at any delay and ending anywhere at or after the window's
// last sample — at that sample, at the 128 samples the APs used to ship,
// at a random length — cut to the same window, and Pipeline.Locate must
// return the full frames' fix bit for bit. One sample shorter, the cut
// window is short and the fix is refused (core.ErrShortCapture).
func TestTruncatedFramesLocateIdentically(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	aps := tb.APsFor([]int{0, 1, 2, 3, 4, 5}, opt.Capture)
	p := core.NewPipeline(opt.Pipeline)
	det := server.DefaultDetector()
	window := det.Offset + det.CaptureLen
	rng := rand.New(rand.NewSource(16))
	checked := 0
	// The draw's uncut frames, one client's sites at a time.
	client := make([][]core.FrameCapture, len(aps))
	tb.drawFrames(opt, tb.Model.Receive, func(ci, si int, frames []core.FrameCapture) {
		if client[si] = frames; si < len(aps)-1 {
			return
		}
		for _, combo := range SceneCombos() {
			sceneAPs := make([]*core.AP, len(combo))
			raw := make([][]core.FrameCapture, len(combo))
			for i, si := range combo {
				sceneAPs[i], raw[i] = aps[si], client[si]
			}
			locate := func(delay, n int) (geom.Point, error) {
				cut := make([][]core.FrameCapture, len(raw))
				for i := range raw {
					cut[i] = delayed(raw[i], delay, n)
					for j, f := range cut[i] {
						cut[i][j].Streams = det.Extract(f.Streams, delay)
					}
				}
				pos, _, err := p.Locate(sceneAPs, cut, tb.Plan.Min, tb.Plan.Max)
				return pos, err
			}
			full := len(raw[0][0].Streams[0])
			want, err := locate(0, full)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{window, 128, window + rng.Intn(full-window)} {
				delay := rng.Intn(64)
				got, err := locate(delay, n)
				if err != nil {
					t.Fatalf("client %d combo %v, %d samples detected at %d: %v", ci, combo, n, delay, err)
				}
				if got != want {
					t.Fatalf("client %d combo %v: fix %v on %d samples detected at %d, %v on the full %d — not bit-identical", ci, combo, got, n, delay, want, full)
				}
			}
			if _, err := locate(rng.Intn(64), window-1); !errors.Is(err, core.ErrShortCapture) {
				t.Fatalf("client %d combo %v: frames ending one sample inside the window: err = %v, want core.ErrShortCapture", ci, combo, err)
			}
			checked++
		}
	})
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	t.Logf("all %d scenes: frames ending at %d, 128 and a random length, detected at random delays, fix bit-identically to the full frames; one sample shorter is refused", checked, window)
}

// TestRawFrameRefusedByDefaultPipeline: an uncut frame — the stream as
// captured, 640 samples from the preamble's start — handed to a
// DefaultConfig pipeline is refused with core.ErrShortCapture, never read
// from sample 0; cut by the AP's detector, the same frames fix.
func TestRawFrameRefusedByDefaultPipeline(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	rng := rand.New(rand.NewSource(opt.Seed))
	sites := []int{0, 1, 2}
	aps := tb.APsFor(sites, opt.Capture)
	raw := make([][]core.FrameCapture, len(sites))
	cut := make([][]core.FrameCapture, len(sites))
	for i, s := range sites {
		raw[i] = tb.CaptureClient(tb.Clients[10], tb.Sites[s], opt.Capture, rng)
		cut[i] = Cut(raw[i])
	}
	p := core.NewPipeline(core.DefaultConfig(tb.Wavelength))
	if _, _, err := p.Locate(aps, raw, tb.Plan.Min, tb.Plan.Max); !errors.Is(err, core.ErrShortCapture) {
		t.Fatalf("uncut %d-sample frames: err = %v, want core.ErrShortCapture", len(raw[0][0].Streams[0]), err)
	}
	if _, _, err := p.Locate(aps, cut, tb.Plan.Min, tb.Plan.Max); err != nil {
		t.Fatalf("the same frames cut to the window: %v", err)
	}
}

// overWire encodes one AP's frames as a v3 frame (AppendBatch), decodes
// it (ReadFrameInto) and returns copies of the decoded frames.
func overWire(t *testing.T, fs []core.FrameCapture) []core.FrameCapture {
	t.Helper()
	caps := make([]server.Capture, len(fs))
	for i, f := range fs {
		caps[i] = server.Capture{APID: 1, ClientID: 1, Seq: uint32(i), Streams: f.Streams}
	}
	wire, err := server.AppendBatch(nil, caps)
	if err != nil {
		t.Fatal(err)
	}
	ws := server.GetIngestWorkspace()
	decoded, err := server.ReadFrameInto(bytes.NewReader(wire), ws)
	if err != nil {
		ws.Discard()
		t.Fatal(err)
	}
	defer server.ReleaseAll(decoded)
	out := make([]core.FrameCapture, len(decoded))
	for i, c := range decoded {
		out[i].Streams = make([][]complex128, len(c.Streams))
		for k, st := range c.Streams {
			out[i].Streams[k] = append([]complex128(nil), st...)
		}
	}
	return out
}

// TestTrimmedWireFixesMatchRaw carries every frame's cut window through
// the wire (AppendBatch → ReadFrameInto) and compares the fixes with the
// same windows never quantized, on all 205 scenes. The int16 scale is
// the capture's peak over the ten samples it carries. The bar is the
// scans' own: same refined argmax cell, fix within 1e-9 m.
func TestTrimmedWireFixesMatchRaw(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	d := tb.Draw(opt)
	cut := d.Cut
	wire := make([][][]core.FrameCapture, len(cut))
	for ci := range cut {
		wire[ci] = make([][]core.FrameCapture, len(cut[ci]))
		for si, fs := range cut[ci] {
			wire[ci][si] = overWire(t, fs)
		}
	}
	// specs[0] over the wire, [1] the windows as cut, never quantized.
	var specs [2][][]*music.Spectrum
	for v, frames := range [][][][]core.FrameCapture{wire, cut} {
		over := *d
		over.Cut = frames
		var err error
		if specs[v], err = over.Spectra(opt.Pipeline); err != nil {
			t.Fatal(err)
		}
	}

	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Cache: core.NewSynthCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, identical := 0, 0
	var worst float64
	for ci := range cut {
		for _, combo := range SceneCombos() {
			var cell [2]int
			var fix [2]geom.Point
			for v := range specs {
				scene := tb.Scene(specs[v][ci], combo)
				if cell[v], err = sg.RefinedArgmaxCell(scene); err != nil {
					t.Fatal(err)
				}
				if fix[v], err = sg.Localize(scene); err != nil {
					t.Fatal(err)
				}
			}
			checked++
			if cell[0] != cell[1] {
				t.Errorf("client %d combo %v: argmax cell %d over the wire, %d unquantized", ci, combo, cell[0], cell[1])
			}
			d := fix[0].Dist(fix[1])
			if d > 1e-9 {
				t.Errorf("client %d combo %v: fix %v over the wire, %v unquantized (%.3g m apart)", ci, combo, fix[0], fix[1], d)
			}
			if d == 0 {
				identical++
			}
			worst = math.Max(worst, d)
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	t.Logf("%d scenes through the wire, 9 x %d vs unquantized: all keep their argmax cell, %d bit-identical, max fix displacement %.3g m",
		checked, server.DefaultDetector().CaptureLen, identical, worst)
}

// TestLocateScaleInvariantThroughWire is the first metamorphic test of
// the whole locate path (AP cut → AppendBatch → ReadFrameInto →
// Pipeline.Locate): scaling every stream of every AP by one factor must
// not move the fix. The per-capture int16 scale absorbs a power of two
// exactly and every later stage is homogeneous, so 2⁻²⁰, ½, 8 and 2²⁰
// return the == fix on all 205 scenes; 3 and 0.1 round on the way, and
// must keep the refined argmax cell and land within 1e-9 m.
func TestLocateScaleInvariantThroughWire(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	d := tb.Draw(opt)
	p := core.NewPipeline(opt.Pipeline)
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Cache: core.NewSynthCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}

	// shipped[ci][si] is what the server decodes of client ci's frames at
	// site si, every sample scaled by scale (the cut copies samples, so
	// scaling before or after it is the same).
	shipped := func(scale complex128) [][][]core.FrameCapture {
		out := make([][][]core.FrameCapture, len(d.Cut))
		for ci := range d.Cut {
			out[ci] = make([][]core.FrameCapture, len(d.APs))
			for si, fs := range d.Cut[ci] {
				scaled := make([]core.FrameCapture, len(fs))
				for i, f := range fs {
					scaled[i].Streams = make([][]complex128, len(f.Streams))
					for k, st := range f.Streams {
						s := make([]complex128, len(st))
						for j, v := range st {
							s[j] = v * scale
						}
						scaled[i].Streams[k] = s
					}
				}
				out[ci][si] = overWire(t, scaled)
			}
		}
		return out
	}
	// locate fixes every scene and returns the fixes and refined cells.
	locate := func(decoded [][][]core.FrameCapture) (fixes []geom.Point, cells []int) {
		for ci := range decoded {
			for _, combo := range SceneCombos() {
				sceneAPs := make([]*core.AP, len(combo))
				caps := make([][]core.FrameCapture, len(combo))
				for i, si := range combo {
					sceneAPs[i], caps[i] = d.APs[si], decoded[ci][si]
				}
				pos, specs, err := p.Locate(sceneAPs, caps, tb.Plan.Min, tb.Plan.Max)
				if err != nil {
					t.Fatal(err)
				}
				cell, err := sg.RefinedArgmaxCell(specs)
				if err != nil {
					t.Fatal(err)
				}
				fixes, cells = append(fixes, pos), append(cells, cell)
			}
		}
		return fixes, cells
	}

	want, wantCells := locate(shipped(1))
	if len(want) != 205 {
		t.Fatalf("swept %d scenes, want 205", len(want))
	}
	for _, c := range []struct {
		scale float64
		exact bool
	}{{0x1p-20, true}, {0.5, true}, {8, true}, {0x1p20, true}, {3, false}, {0.1, false}} {
		got, cells := locate(shipped(complex(c.scale, 0)))
		var worst float64
		for i := range got {
			d := got[i].Dist(want[i])
			worst = math.Max(worst, d)
			switch {
			case c.exact && got[i] != want[i]:
				t.Errorf("scale %g, scene %d: fix %v, unscaled %v — not ==", c.scale, i, got[i], want[i])
			case cells[i] != wantCells[i]:
				t.Errorf("scale %g, scene %d: argmax cell %d, unscaled %d", c.scale, i, cells[i], wantCells[i])
			case d > 1e-9:
				t.Errorf("scale %g, scene %d: fix %v is %.3g m from the unscaled %v", c.scale, i, got[i], d, want[i])
			}
		}
		t.Logf("scale %g: %d scenes, max fix displacement %.3g m", c.scale, len(got), worst)
	}
}

// permuted returns the request with its APs, and their captures, listed
// in the order perm gives: entry i is the request's AP perm[i].
func permuted(req engine.Request, perm []int) engine.Request {
	out := req
	out.APs = make([]*core.AP, len(perm))
	out.Captures = make([][]core.FrameCapture, len(perm))
	for i, k := range perm {
		out.APs[i], out.Captures[i] = req.APs[k], req.Captures[k]
	}
	return out
}

// TestLocatePermutationInvariant is the whole locate path's AP-order
// metamorphic test: the order in which a request lists its APs is
// bookkeeping, so reversing, rotating or shuffling it must not move the
// fix. It covers all 41 clients × 6 APs at 10 cm under each of the three
// orders, and the 3-AP throughput fixture's 256 requests, each under one
// of the three. The reference is Pipeline.Locate in the request's own
// order; the permuted requests go through one engine worker, whose
// workspace gets every job's spectra back, so a recycled spectrum paired
// with the wrong AP — metres off — fails the test too.
//
// The bar is 1e-9 m, not ==: Eq. 8 sums the APs' log-likelihoods in
// request order, and on a near-tie that rounding steers the hill climb
// to the same point by another path, an ulp or two away, on one or two
// of the 123 six-AP fixes. Steering tables are built at the origin, so
// that count no longer depends on which AP first built a shared table;
// the == counts are logged.
func TestLocatePermutationInvariant(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	d := tb.Draw(opt)
	// serve checks each request under the orders orders(i) gives it and
	// returns how many fixes it compared and how many were ==.
	serve := func(cfg core.Config, reqs []engine.Request, orders func(i int) [][]int) (checked, exact int) {
		t.Helper()
		p := core.NewPipeline(cfg)
		eng := engine.New(engine.Options{Workers: 1, Config: cfg})
		defer eng.Close()
		for i, req := range reqs {
			want, _, err := p.Locate(req.APs, req.Captures, req.Min, req.Max)
			if err != nil {
				t.Fatal(err)
			}
			for _, perm := range orders(i) {
				got := eng.Locate(permuted(req, perm))
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if d := got.Pos.Dist(want); d > 1e-9 {
					t.Errorf("request %d, APs in order %v: fix %v is %.3g m from %v in the request's order", i, perm, got.Pos, d, want)
				}
				if got.Pos == want {
					exact++
				}
				checked++
			}
		}
		return checked, exact
	}

	var walk []engine.Request
	for ci, caps := range d.Cut {
		walk = append(walk, engine.Request{ClientID: uint32(ci + 1), APs: d.APs, Captures: caps, Min: tb.Plan.Min, Max: tb.Plan.Max})
	}
	six := [][]int{{5, 4, 3, 2, 1, 0}, {1, 2, 3, 4, 5, 0}, {3, 0, 5, 1, 4, 2}}
	n, exact := serve(opt.Pipeline, walk, func(int) [][]int { return six })
	if n != 123 {
		t.Fatalf("checked %d fixes at 6 APs, want 123", n)
	}
	t.Logf("6 APs: %d of %d permuted fixes ==", exact, n)

	thr := DefaultThroughputOptions()
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = thr.GridCell
	three := [][]int{{2, 1, 0}, {1, 2, 0}, {1, 0, 2}}
	n, exact = serve(cfg, tb.ThroughputRequests(256, thr), func(i int) [][]int { return three[i%3 : i%3+1] })
	if n != 256 {
		t.Fatalf("checked %d fixes at 3 APs, want 256", n)
	}
	t.Logf("3 APs: %d of %d permuted fixes ==", exact, n)
}

// TestDrawWireMatchesPerPath: summing a reception's paths per delay tap
// (channel.Model.Receive) moves samples by a few ulps of the stream peak
// from the per-path oracle (ReceivePerPath), which the wire's quantizer
// absorbs. On the 205-scene draw, seeds 1 and 2, every (client, site)
// pair's frames through either synthesis detect at the same sample, and
// the v3 frame the AP ships of them — server.DefaultDetector's Detect
// and Extract, then server.AppendBatch — is the same bytes.
func TestDrawWireMatchesPerPath(t *testing.T) {
	tb := New()
	det := server.DefaultDetector()
	// ship is what an AP at site si sends of client ci's frames, with
	// each frame's detected start (-1: not detected, cut from sample 0).
	ship := func(ci, si int, frames []core.FrameCapture) ([]int, []byte) {
		starts := make([]int, len(frames))
		caps := make([]server.Capture, len(frames))
		for i, f := range frames {
			start, ok := det.Detect(f.Streams)
			if starts[i] = start; !ok {
				start, starts[i] = 0, -1
			}
			caps[i] = server.Capture{APID: uint32(si + 1), ClientID: uint32(ci), Seq: uint32(i), Streams: det.Extract(f.Streams, start)}
		}
		wire, err := server.AppendBatch(nil, caps)
		if err != nil {
			t.Fatalf("client %d site %d: %v", ci, si, err)
		}
		return starts, wire
	}
	for _, seed := range []int64{1, 2} {
		opt := DefaultAccuracyOptions()
		opt.Seed = seed
		type shipped struct {
			starts []int
			wire   []byte
		}
		var want []shipped
		tb.drawFrames(opt, tb.Model.ReceivePerPath, func(ci, si int, frames []core.FrameCapture) {
			starts, wire := ship(ci, si, frames)
			want = append(want, shipped{starts, wire})
		})
		pairs, detected := 0, 0
		tb.drawFrames(opt, tb.Model.Receive, func(ci, si int, frames []core.FrameCapture) {
			starts, wire := ship(ci, si, frames)
			w := want[pairs]
			if !slices.Equal(starts, w.starts) {
				t.Fatalf("seed %d client %d site %d: detected at %v, per-path oracle at %v", seed, ci, si, starts, w.starts)
			}
			if !bytes.Equal(wire, w.wire) {
				t.Fatalf("seed %d client %d site %d: the shipped frame differs from the per-path oracle's", seed, ci, si)
			}
			for _, s := range starts {
				if s >= 0 {
					detected++
				}
			}
			pairs++
		})
		if pairs != len(want) || pairs != 41*6 {
			t.Fatalf("seed %d: %d pairs through taps, %d per path, want %d", seed, pairs, len(want), 41*6)
		}
		t.Logf("seed %d: %d (client, site) pairs, %d of %d frames detected, wire bytes == the per-path oracle's", seed, pairs, detected, pairs*opt.Capture.Frames)
	}
}
