package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/music"
)

// stagesByHand runs the per-AP half stage by stage — a spectrum for
// every frame, then the combine — on ws (nil: a fresh workspace per
// call).
func stagesByHand(t *testing.T, p *Pipeline, ws *music.Workspace, ap *AP, frames []FrameCapture) *music.Spectrum {
	t.Helper()
	var spectra []*music.Spectrum
	for _, f := range frames {
		s, err := p.FrameSpectrum(ws, ap, f)
		if err != nil {
			t.Fatal(err)
		}
		spectra = append(spectra, s)
	}
	s, err := p.CombineAP(ws, ap, frames, spectra)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPipelineWorkspaceEquivalence pins the workspace contract: the
// pooled-workspace pipeline must produce bit-identical spectra and the
// identical fix versus the same stages run on a fresh workspace per
// call (nil).
func TestPipelineWorkspaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	client := geom.Pt(6.5, 7.1)
	aps, captures, plan := buildTestbedAPs(t, client, 3, 3, rng)

	cfg := DefaultConfig(lambda)
	p := NewPipeline(cfg)

	specsA := make([]APSpectrum, len(aps))
	for i, ap := range aps {
		specsA[i] = APSpectrum{Pos: ap.Array.Pos, Spectrum: stagesByHand(t, p, nil, ap, captures[i])}
	}
	posA, err := p.Synthesize(specsA, plan.Min, plan.Max)
	if err != nil {
		t.Fatal(err)
	}
	posP, specsP, err := p.Locate(aps, captures, plan.Min, plan.Max)
	if err != nil {
		t.Fatal(err)
	}
	if posA != posP {
		t.Fatalf("fix differs: fresh workspaces %v vs pooled %v", posA, posP)
	}
	if len(specsA) != len(specsP) {
		t.Fatalf("spectra count differs")
	}
	for i := range specsA {
		for b := range specsA[i].Spectrum.P {
			if specsA[i].Spectrum.P[b] != specsP[i].Spectrum.P[b] {
				t.Fatalf("AP %d bin %d differs (not bit-identical)", i, b)
			}
		}
	}
}

// TestPipelineStagesComposeToProcessAP: running the explicit stages by
// hand must equal the packaged ProcessAP.
func TestPipelineStagesComposeToProcessAP(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	client := geom.Pt(11.5, 5.0)
	aps, captures, plan := buildTestbedAPs(t, client, 2, 3, rng)

	cfg := DefaultConfig(lambda)
	p := NewPipeline(cfg)

	want, err := p.ProcessAP(aps[0], captures[0])
	if err != nil {
		t.Fatal(err)
	}

	got := stagesByHand(t, p, &music.Workspace{}, aps[0], captures[0])
	for b := range want.P {
		if got.P[b] != want.P[b] {
			t.Fatalf("bin %d differs between staged and packaged path", b)
		}
	}

	// And synthesis over the staged spectra must agree with Locate.
	wantPos, specs, err := LocateClient(aps, captures, plan.Min, plan.Max, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotPos, err := p.Synthesize(specs, plan.Min, plan.Max)
	if err != nil {
		t.Fatal(err)
	}
	if wantPos != gotPos {
		t.Fatalf("synthesis differs: %v vs %v", wantPos, gotPos)
	}
}

// TestPipelineRefusesShortCapture: both readers of a frame's samples —
// the per-frame spectrum over the row, and the ninth-antenna vote over
// frame 0 — refuse a stream that is not MaxSamples long with
// ErrShortCapture, through every wrapper up to Locate. One sample short
// lacks a snapshot; one sample long is an uncut capture, whose leading
// samples are not the window.
func TestPipelineRefusesShortCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	aps, captures, plan := buildTestbedAPs(t, geom.Pt(8, 6), 2, 3, rng)
	p := NewPipeline(DefaultConfig(lambda))
	window := DefaultMaxSamples

	// resize copies the frame with stream only (every stream if only is
	// -1) cut to n samples, or zero-padded to n = window+1.
	resize := func(frame FrameCapture, n, only int) FrameCapture {
		out := FrameCapture{Streams: append([][]complex128(nil), frame.Streams...)}
		for k, st := range out.Streams {
			if only < 0 || k == only {
				out.Streams[k] = append(append([]complex128(nil), st...), 0)[:n]
			}
		}
		return out
	}
	ninth := aps[1].Array.N
	for name, frame0 := range map[string]FrameCapture{
		"every stream one sample short":  resize(captures[1][0], window-1, -1),
		"ninth antenna one sample short": resize(captures[1][0], window-1, ninth),
		"every stream one sample long":   resize(captures[1][0], window+1, -1),
		"ninth antenna one sample long":  resize(captures[1][0], window+1, ninth),
	} {
		bad := [][]FrameCapture{captures[0], {frame0, captures[1][1], captures[1][2]}}
		if _, _, err := p.Locate(aps, bad, plan.Min, plan.Max); !errors.Is(err, ErrShortCapture) {
			t.Errorf("%s: Locate err = %v, want ErrShortCapture", name, err)
		}
	}
	// The control: the same frame copied at exactly the window fixes,
	// where the untouched captures do.
	exact := [][]FrameCapture{captures[0], {resize(captures[1][0], window, -1), captures[1][1], captures[1][2]}}
	got, _, err := p.Locate(aps, exact, plan.Min, plan.Max)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, _ := p.Locate(aps, captures, plan.Min, plan.Max); got != want {
		t.Errorf("fix on the copied %d-sample frame %v, on the original %v", window, got, want)
	}
}

// squaredEstimator squares MUSIC's spectrum: the same peaks, a
// different spectrum.
type squaredEstimator struct{}

func (squaredEstimator) Spectrum(ws *music.Workspace, a *array.Array, snaps [][]complex128, opt music.Options) (*music.Spectrum, error) {
	s, err := music.MUSICEstimator.Spectrum(ws, a, snaps, opt)
	if err != nil {
		return nil, err
	}
	for i, p := range s.P {
		s.P[i] = p * p
	}
	return s, nil
}

// TestPipelineEstimatorInjection: an injected estimator runs end to
// end and is actually consulted — the pipeline's spectra are its own,
// not MUSIC's.
func TestPipelineEstimatorInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	client := geom.Pt(9.0, 6.0)
	aps, captures, plan := buildTestbedAPs(t, client, 3, 3, rng)

	_, musicSpecs, err := LocateClient(aps, captures, plan.Min, plan.Max, DefaultConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(lambda)
	cfg.Estimator = squaredEstimator{}
	pos, specs, err := LocateClient(aps, captures, plan.Min, plan.Max, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d spectra, want 3", len(specs))
	}
	// The same peaks localize a strong line-of-sight client to within
	// a loose bound on this benign fixture.
	if d := pos.Dist(client); d > 3.0 {
		t.Errorf("error %.2f m, want < 3 m", d)
	}
	if slices.Equal(musicSpecs[0].Spectrum.P, specs[0].Spectrum.P) {
		t.Fatal("the injected estimator produced MUSIC's spectrum — injection is not wired through")
	}
}

// TestProcessAPsSteadyStateAllocs gates the per-AP stage's allocation
// budget with warm workspaces and caches: frame spectra, their list,
// the Bartlett vote spectrum and the peak lists all live in the
// workspace, so each contributing AP costs its escaping combined
// spectrum (struct + bins) and ProcessAPs its four bookkeeping slices.
// Calibration is set, as in every real deployment, so the per-frame
// phasor scratch is covered too.
func TestProcessAPsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(46))
	const nAPs = 4
	aps, captures, _ := buildTestbedAPs(t, geom.Pt(8.5, 6.2), nAPs, 3, rng)
	for _, ap := range aps {
		ap.Calibration = make([]float64, ap.Array.NumElements())
		for k := 1; k < len(ap.Calibration); k++ {
			ap.Calibration[k] = 0.2 * float64(k)
		}
	}
	cfg := DefaultConfig(lambda)
	cfg.Steering = music.NewSteeringCache(0)
	p := NewPipeline(cfg)
	if _, err := p.ProcessAPs(aps, captures); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.ProcessAPs(aps, captures); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per ProcessAPs over %d APs × 3 frames", allocs, nAPs)
	if limit := float64(4*nAPs + 4); allocs > limit {
		t.Fatalf("ProcessAPs allocates %.1f per call, want ≤ %.0f (4 per contributing AP + 4)", allocs, limit)
	}
}

// memoEstimator answers repeat frames from a cache keyed on the row
// snapshots it is handed, the way an injected estimator
// sitting on a replay log might: the spectrum it returns stays in its
// hands after the call.
type memoEstimator struct {
	mu   sync.Mutex
	seen map[string]*music.Spectrum
}

func (m *memoEstimator) Spectrum(_ *music.Workspace, a *array.Array, snaps [][]complex128, opt music.Options) (*music.Spectrum, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var key strings.Builder
	for _, x := range snaps {
		fmt.Fprint(&key, x[:a.N])
	}
	if s, ok := m.seen[key.String()]; ok {
		return s, nil
	}
	s, err := music.MUSICEstimator.Spectrum(nil, a, snaps, opt)
	if err == nil {
		m.seen[key.String()] = s
	}
	return s, err
}

// TestProcessAPsLeavesRetainedSpectraAlone: the per-AP stage recycles
// its frame spectra into the workspace, but only those the workspace's
// own scans produced. A spectrum an injected estimator still holds must
// come through ProcessAPs untouched, call after call, although later
// scans (the ninth-antenna Bartlett vote, the next AP's frames) refill
// recycled storage. The estimator holds every spectrum the stage asked
// it for: frames 0 and 1 of each AP, since on this fixture frame 1
// matches every primary peak and no frame 2 is computed.
func TestProcessAPsLeavesRetainedSpectraAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	aps, captures, _ := buildTestbedAPs(t, geom.Pt(7.5, 4.2), 3, 3, rng)
	memo := &memoEstimator{seen: map[string]*music.Spectrum{}}
	cfg := DefaultConfig(lambda)
	cfg.Steering = music.NewSteeringCache(0)
	cfg.Estimator = memo
	p := NewPipeline(cfg)

	first, err := p.ProcessAPs(aps, captures)
	if err != nil {
		t.Fatal(err)
	}
	held := map[*music.Spectrum][]float64{}
	for _, s := range memo.seen {
		held[s] = append([]float64(nil), s.P...)
	}
	if len(held) != 6 {
		t.Fatalf("estimator holds %d spectra, want 6 (3 APs × frames 0 and 1)", len(held))
	}
	for round := 0; round < 3; round++ {
		again, err := p.ProcessAPs(aps, captures)
		if err != nil {
			t.Fatal(err)
		}
		for s, want := range held {
			if len(s.P) != len(want) {
				t.Fatalf("round %d: a held spectrum was resized to %d bins", round, len(s.P))
			}
			for b := range want {
				if s.P[b] != want[b] {
					t.Fatalf("round %d: a held spectrum was overwritten at bin %d", round, b)
				}
			}
		}
		for i := range first {
			for b := range first[i].Spectrum.P {
				if again[i].Spectrum.P[b] != first[i].Spectrum.P[b] {
					t.Fatalf("round %d: AP %d bin %d differs from the first pass", round, i, b)
				}
			}
		}
	}
}

// countingEstimator counts the frames the pipeline asks MUSIC for.
type countingEstimator struct{ calls int }

func (c *countingEstimator) Spectrum(ws *music.Workspace, a *array.Array, snaps [][]complex128, opt music.Options) (*music.Spectrum, error) {
	c.calls++
	return music.MUSICEstimator.Spectrum(ws, a, snaps, opt)
}

// TestProcessAPComputesOnlyFramesRead: the combine stage reads frame 0
// and frame 1 under multipath suppression, frame 2 only while frame 1
// leaves a primary peak unmatched, and frame 0 alone without
// suppression, so the per-AP stage must compute no more. Two fixtures
// cover both sides of the early exit. Skipping frames must not change
// the result, which is pinned == against CombineAP fed a spectrum for
// every frame.
func TestProcessAPComputesOnlyFramesRead(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		cfg  Config
		want int
	}{
		{48, DefaultConfig(lambda), 2}, // frame 1 matches every primary peak
		{41, DefaultConfig(lambda), 3}, // frame 1 leaves a peak unmatched
		{48, UnoptimizedConfig(lambda), 1},
	} {
		aps, captures, _ := buildTestbedAPs(t, geom.Pt(9.5, 6.4), 1, 5, rand.New(rand.NewSource(tc.seed)))
		ap, frames := aps[0], captures[0]
		est := &countingEstimator{}
		tc.cfg.Estimator = est
		p := NewPipeline(tc.cfg)
		got, err := p.ProcessAP(ap, frames)
		if err != nil {
			t.Fatal(err)
		}
		if est.calls != tc.want {
			t.Fatalf("seed %d, suppression=%v: %d frames in, %d spectra computed, want %d",
				tc.seed, tc.cfg.UseSuppression, len(frames), est.calls, tc.want)
		}
		want := stagesByHand(t, p, nil, ap, frames)
		for b := range want.P {
			if got.P[b] != want.P[b] {
				t.Fatalf("seed %d, suppression=%v: bin %d differs from the run over every frame", tc.seed, tc.cfg.UseSuppression, b)
			}
		}
	}
	// Frame 2 goes unread on the seed-48 fixture, yet a malformed one is
	// still refused.
	aps, captures, _ := buildTestbedAPs(t, geom.Pt(9.5, 6.4), 1, 3, rand.New(rand.NewSource(48)))
	frames := slices.Clone(captures[0])
	frames[2].Streams = slices.Clone(frames[2].Streams)
	frames[2].Streams[0] = frames[2].Streams[0][:DefaultMaxSamples-1]
	if _, err := NewPipeline(DefaultConfig(lambda)).ProcessAP(aps[0], frames); !errors.Is(err, ErrShortCapture) {
		t.Fatalf("short unread frame 2: err = %v, want ErrShortCapture", err)
	}
}

// scriptedEstimator answers frame i, whose every sample is i+1, with
// spectra[i], and counts its calls.
type scriptedEstimator struct {
	spectra []*music.Spectrum
	calls   int
}

func (e *scriptedEstimator) Spectrum(_ *music.Workspace, _ *array.Array, snaps [][]complex128, _ music.Options) (*music.Spectrum, error) {
	e.calls++
	return e.spectra[int(real(snaps[0][0]))-1], nil
}

// eagerSuppress is §2.4 read literally, on every frame's peaks: each
// primary peak no other frame matches loses its lobe, in peak order.
// SuppressMultipath runs the served routine, so a fault in its early
// exit would be on both sides of an == against it; this one shares
// only removeLobe.
func eagerSuppress(spectra []*music.Spectrum, tolDeg float64) *music.Spectrum {
	out := spectra[0].Clone()
	for _, pk := range spectra[0].Peaks(DefaultPeakFloor) {
		stable := false
		for _, s := range spectra[1:] {
			stable = stable || hasMatchingPeak(s, pk.Theta, tolDeg)
		}
		if !stable {
			removeLobe(out, pk.Bin)
		}
	}
	return out
}

// TestProcessAPTakesThirdFrameOnDemand drives the per-AP stage's early
// exit on synthetic spectra (primary lobes at 60° and 150°): frame 2's
// spectrum is asked for only when frame 1 leaves the 150° lobe
// unmatched, and in every case the combined spectrum is == to
// SuppressMultipath over all three frames and to eagerSuppress.
func TestProcessAPTakesThirdFrameOnDemand(t *testing.T) {
	primary := gaussSpectrum([]float64{60, 150}, []float64{1, 0.8})
	for _, tc := range []struct {
		name   string
		f1, f2 []float64
		calls  int
		kept   bool // the 150° lobe survives
	}{
		{"frame 1 matches every peak", []float64{61, 149}, []float64{100, 250}, 2, true},
		{"frame 2 rescues the lobe frame 1 missed", []float64{61, 170}, []float64{62, 152}, 3, true},
		{"neither frame matches", []float64{61, 170}, []float64{62, 130}, 3, false},
	} {
		spectra := []*music.Spectrum{
			primary,
			gaussSpectrum(tc.f1, []float64{1, 0.8}),
			gaussSpectrum(tc.f2, []float64{1, 0.8}),
		}
		est := &scriptedEstimator{spectra: spectra}
		cfg := UnoptimizedConfig(lambda)
		cfg.UseSuppression = true
		cfg.Estimator = est
		ap := &AP{Array: array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)}
		frames := make([]FrameCapture, len(spectra))
		for i := range frames {
			frames[i].Streams = make([][]complex128, ap.Array.N)
			for k := range frames[i].Streams {
				st := make([]complex128, DefaultMaxSamples)
				for t := range st {
					st[t] = complex(float64(i+1), 0)
				}
				frames[i].Streams[k] = st
			}
		}
		got, err := NewPipeline(cfg).ProcessAP(ap, frames)
		if err != nil {
			t.Fatal(err)
		}
		if est.calls != tc.calls {
			t.Errorf("%s: %d frame spectra computed, want %d", tc.name, est.calls, tc.calls)
		}
		want := SuppressMultipath(spectra, DefaultPeakMatchTolDeg).Normalize()
		if !slices.Equal(got.P, want.P) {
			t.Errorf("%s: combined spectrum differs from SuppressMultipath over all three frames", tc.name)
		}
		if eager := eagerSuppress(spectra, DefaultPeakMatchTolDeg).Normalize(); !slices.Equal(got.P, eager.P) {
			t.Errorf("%s: combined spectrum differs from the eager algorithm", tc.name)
		}
		if kept := got.At(geom.Rad(150)) > 0.3; kept != tc.kept {
			t.Errorf("%s: 150° lobe at %.3g, kept = %v, want %v", tc.name, got.At(geom.Rad(150)), kept, tc.kept)
		}
	}
}
