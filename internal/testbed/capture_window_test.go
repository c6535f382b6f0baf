package testbed

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/server"
)

// windowScenes captures every (client, site) pair of the exactness
// sweep once — the same frames SpectraForAll draws — and lists its 205
// scenes (41 clients × [all six sites plus four 3-site combos]).
func windowScenes(tb *Testbed, opt AccuracyOptions) (aps []*core.AP, frames [][][]core.FrameCapture, combos [][]int) {
	rng := rand.New(rand.NewSource(opt.Seed))
	frames = make([][][]core.FrameCapture, len(tb.Clients))
	for ci, c := range tb.Clients {
		frames[ci] = make([][]core.FrameCapture, len(tb.Sites))
		for si, site := range tb.Sites {
			frames[ci][si] = tb.CaptureClient(c, site, opt.Capture, rng)
		}
	}
	for _, site := range tb.Sites {
		aps = append(aps, &core.AP{Array: tb.NewArray(site, opt.Capture)})
	}
	combos = [][]int{{0, 1, 2, 3, 4, 5}}
	combos = append(combos, Combinations(len(tb.Sites), 3)[:4]...)
	return aps, frames, combos
}

// cutFrames returns the frames with every stream cut to its first n
// samples (sharing the source's memory).
func cutFrames(frames []core.FrameCapture, n int) []core.FrameCapture {
	out := make([]core.FrameCapture, len(frames))
	for i, f := range frames {
		out[i].Streams = make([][]complex128, len(f.Streams))
		for k, st := range f.Streams {
			out[i].Streams[k] = st[:n]
		}
	}
	return out
}

// TestTruncatedFramesLocateIdentically is the capture window's
// metamorphic pin, no ground truth needed: SampleOffset counts from the
// detected start whether or not the tail was trimmed, so Pipeline.Locate
// on frames cut to any length that still covers
// [SampleOffset, SampleOffset+MaxSamples) reads the same samples and
// must return the raw frames' fix bit for bit — at the window's last
// sample, at the length the APs ship, and at a random length per scene.
func TestTruncatedFramesLocateIdentically(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	aps, frames, combos := windowScenes(tb, opt)
	p := core.NewPipeline(opt.Pipeline)
	window := opt.Pipeline.SampleOffset + opt.Pipeline.MaxSamples
	shipped := server.DefaultDetector().CaptureLen
	rng := rand.New(rand.NewSource(16))
	checked := 0
	for ci := range frames {
		for _, combo := range combos {
			sceneAPs := make([]*core.AP, len(combo))
			raw := make([][]core.FrameCapture, len(combo))
			for i, si := range combo {
				sceneAPs[i], raw[i] = aps[si], frames[ci][si]
			}
			want, _, err := p.Locate(sceneAPs, raw, tb.Plan.Min, tb.Plan.Max)
			if err != nil {
				t.Fatal(err)
			}
			full := len(raw[0][0].Streams[0])
			for _, n := range []int{window, shipped, window + rng.Intn(full-window)} {
				cut := make([][]core.FrameCapture, len(raw))
				for i := range raw {
					cut[i] = cutFrames(raw[i], n)
				}
				got, _, err := p.Locate(sceneAPs, cut, tb.Plan.Min, tb.Plan.Max)
				if err != nil {
					t.Fatalf("client %d combo %v cut to %d samples: %v", ci, combo, n, err)
				}
				if got != want {
					t.Fatalf("client %d combo %v: fix %v on frames cut to %d samples, %v on the raw %d — not bit-identical", ci, combo, got, n, want, full)
				}
			}
			checked++
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	t.Logf("all %d scenes: the fix on frames cut to %d, %d and a random length is bit-identical to the raw frames'", checked, window, shipped)
}

// TestTrimmedWireFixesMatchRaw carries every frame through the wire
// (AppendBatch → ReadFrameInto) twice — raw, and trimmed by the
// detector to what the APs ship — and compares the fixes on all 205
// scenes. The bytes differ by design: the int16 scale is the capture's
// peak, now taken over 128 samples instead of 640, so a trimmed capture
// is quantized on the same or a finer grid. The bar is the scans' own:
// same refined argmax cell, fix within 1e-9 m.
//
// One scene does not meet it, and the test says so rather than widening
// the tolerance: client 10 over sites [0 1 2], where the hill climb
// forks — the raw capture's coarser quantization sends it to
// (20.188, 3.000), the trimmed capture's to (20.050, 3.100), 17 cm
// away in the same cell. The trimmed fix is the one the unquantized
// samples give. So a miss is tolerated only in that form (same cell,
// and the trimmed fix within 1e-9 m of the fix on the samples before
// any quantization: it is the raw capture that quantization moved), it
// is named in the log, and more than one fails the test.
func TestTrimmedWireFixesMatchRaw(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	aps, frames, combos := windowScenes(tb, opt)
	p := core.NewPipeline(opt.Pipeline)
	det := server.DefaultDetector()

	// overWire encodes one AP's frames as a v3 frame, decodes it into a
	// pooled workspace and processes the decoded streams.
	overWire := func(ap *core.AP, fs []core.FrameCapture) *music.Spectrum {
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
		got := make([]core.FrameCapture, len(decoded))
		for i, c := range decoded {
			got[i].Streams = c.Streams
		}
		s, err := p.ProcessAP(ap, got)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// specs[0] raw over the wire, [1] trimmed over the wire, [2] the
	// samples as captured, never quantized.
	var specs [3][][]*music.Spectrum
	for v := range specs {
		specs[v] = make([][]*music.Spectrum, len(frames))
	}
	for ci := range frames {
		for v := range specs {
			specs[v][ci] = make([]*music.Spectrum, len(aps))
		}
		for si, ap := range aps {
			trimmed := make([]core.FrameCapture, len(frames[ci][si]))
			for i, f := range frames[ci][si] {
				trimmed[i].Streams = det.Extract(f.Streams, 0)
			}
			specs[0][ci][si] = overWire(ap, frames[ci][si])
			specs[1][ci][si] = overWire(ap, trimmed)
			var err error
			if specs[2][ci][si], err = p.ProcessAP(ap, frames[ci][si]); err != nil {
				t.Fatal(err)
			}
		}
	}

	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Workers: 1, Cache: core.NewSynthCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, identical, missed := 0, 0, 0
	for ci := range frames {
		for _, combo := range combos {
			var cell [3]int
			var fix [3]geom.Point
			for v := range specs {
				scene := make([]core.APSpectrum, len(combo))
				for i, si := range combo {
					scene[i] = core.APSpectrum{Pos: tb.Sites[si].Pos, Spectrum: specs[v][ci][si]}
				}
				if cell[v], err = sg.RefinedArgmaxCell(scene); err != nil {
					t.Fatal(err)
				}
				if fix[v], err = sg.Localize(scene); err != nil {
					t.Fatal(err)
				}
			}
			checked++
			if cell[1] != cell[0] {
				t.Errorf("client %d combo %v: trimmed capture's argmax cell %d, raw capture's %d", ci, combo, cell[1], cell[0])
			}
			switch d := fix[1].Dist(fix[0]); {
			case fix[1] == fix[0]:
				identical++
			case d <= 1e-9:
			case fix[1].Dist(fix[2]) <= 1e-9:
				missed++
				t.Logf("MISS client %d combo %v: trimmed capture fixes at %v, raw at %v, %.3g m apart in cell %d; the unquantized samples fix at %v — quantization moved the raw capture's hill climb, not the trimmed one's",
					ci, combo, fix[1], fix[0], d, cell[1], fix[2])
			default:
				t.Errorf("client %d combo %v: trimmed capture fixes at %v, raw at %v (%.3g m apart), unquantized at %v",
					ci, combo, fix[1], fix[0], d, fix[2])
			}
		}
	}
	if checked != 205 {
		t.Fatalf("swept %d scenes, want 205", checked)
	}
	if missed > 1 {
		t.Errorf("%d scenes miss the 1e-9 m bar; one is documented", missed)
	}
	t.Logf("%d scenes through the wire, 9 x %d vs raw: all keep their argmax cell, %d fix within 1e-9 m (%d bit-identical), %d miss (named above)",
		checked, det.CaptureLen, checked-missed, identical, missed)
}
