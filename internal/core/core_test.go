package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/wifi"
)

const lambda = 0.1225

// gaussSpectrum builds a spectrum with Gaussian lobes at the given
// bearings (degrees) and amplitudes.
func gaussSpectrum(centersDeg []float64, amps []float64) *music.Spectrum {
	s := music.NewSpectrum(360)
	for j, c := range centersDeg {
		for i := range s.P {
			d := math.Abs(float64(i) - c)
			if d > 180 {
				d = 360 - d
			}
			s.P[i] += amps[j] * math.Exp(-d*d/(2*16))
		}
	}
	return s.Normalize()
}

func TestSuppressMultipathRemovesUnstablePeak(t *testing.T) {
	// Primary has peaks at 60° (direct, stable) and 150° (reflection).
	// The other two frames keep 60° but the reflection wanders.
	primary := gaussSpectrum([]float64{60, 150}, []float64{1, 0.8})
	f2 := gaussSpectrum([]float64{60, 170}, []float64{1, 0.8})
	f3 := gaussSpectrum([]float64{61, 130}, []float64{1, 0.8})
	out := SuppressMultipath([]*music.Spectrum{primary, f2, f3}, 5)

	if out.At(geom.Rad(60)) < 0.5 {
		t.Errorf("stable direct peak suppressed: %v", out.At(geom.Rad(60)))
	}
	if out.At(geom.Rad(150)) > 0.05 {
		t.Errorf("unstable reflection survives: %v", out.At(geom.Rad(150)))
	}
	// The primary itself must be untouched.
	if primary.At(geom.Rad(150)) < 0.5 {
		t.Error("SuppressMultipath mutated its input")
	}
}

func TestSuppressMultipathKeepsStablePeaks(t *testing.T) {
	// Both peaks stable in all frames → nothing removed (the "no
	// deleterious consequences" case of §2.4).
	a := gaussSpectrum([]float64{60, 150}, []float64{1, 0.8})
	b := gaussSpectrum([]float64{62, 149}, []float64{1, 0.8})
	out := SuppressMultipath([]*music.Spectrum{a, b}, 5)
	if out.At(geom.Rad(60)) < 0.5 || out.At(geom.Rad(150)) < 0.3 {
		t.Error("stable peaks should be kept")
	}
}

func TestSuppressMultipathSingleSpectrumPassThrough(t *testing.T) {
	a := gaussSpectrum([]float64{60}, []float64{1})
	out := SuppressMultipath([]*music.Spectrum{a}, 5)
	if out.At(geom.Rad(60)) != a.At(geom.Rad(60)) {
		t.Error("single spectrum should pass through")
	}
	if SuppressMultipath(nil, 5) != nil {
		t.Error("empty input should return nil")
	}
}

func TestRemovePeaksNear(t *testing.T) {
	s := gaussSpectrum([]float64{45, 200}, []float64{1, 0.9})
	out := RemovePeaksNear(s, []float64{geom.Rad(45)}, 5)
	if out.At(geom.Rad(45)) > 0.05 {
		t.Errorf("peak at 45° not removed: %v", out.At(geom.Rad(45)))
	}
	if out.At(geom.Rad(200)) < 0.5 {
		t.Errorf("peak at 200° should survive: %v", out.At(geom.Rad(200)))
	}
}

func TestPeakStability(t *testing.T) {
	a := gaussSpectrum([]float64{60, 150}, []float64{1, 0.8})
	moved := gaussSpectrum([]float64{60, 170}, []float64{1, 0.8})
	direct, refl := PeakStability(a, moved, geom.Rad(60), 5)
	if !direct || refl {
		t.Errorf("stability = %v,%v; want direct stable, reflections moved", direct, refl)
	}
	same := gaussSpectrum([]float64{60, 150}, []float64{1, 0.8})
	direct, refl = PeakStability(a, same, geom.Rad(60), 5)
	if !direct || !refl {
		t.Errorf("identical spectra should be fully stable: %v,%v", direct, refl)
	}
}

func TestLikelihoodPeaksAtIntersection(t *testing.T) {
	// Two APs with clean spectra pointing at the client position.
	client := geom.Pt(5, 5)
	ap1 := geom.Pt(0, 0)
	ap2 := geom.Pt(10, 0)
	s1 := gaussSpectrum([]float64{geom.Deg(ap1.Bearing(client))}, []float64{1})
	s2 := gaussSpectrum([]float64{geom.Deg(ap2.Bearing(client))}, []float64{1})
	aps := []APSpectrum{{Pos: ap1, Spectrum: s1}, {Pos: ap2, Spectrum: s2}}

	lTrue := Likelihood(client, aps)
	lWrong := Likelihood(geom.Pt(2, 8), aps)
	if lTrue <= lWrong {
		t.Errorf("likelihood at truth %v not above %v", lTrue, lWrong)
	}

	pos, _, err := Localize(aps, geom.Pt(0, 0), geom.Pt(10, 10), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pos.Dist(client) > 0.5 {
		t.Errorf("localized %v, want near %v", pos, client)
	}
}

func TestLocalizeErrors(t *testing.T) {
	if _, _, err := Localize(nil, geom.Pt(0, 0), geom.Pt(1, 1), 0.1); err == nil {
		t.Error("no APs should error")
	}
	s := gaussSpectrum([]float64{45}, []float64{1})
	aps := []APSpectrum{{Pos: geom.Pt(0, 0), Spectrum: s}}
	if _, err := ComputeHeatmap(aps, geom.Pt(0, 0), geom.Pt(1, 1), 0); err == nil {
		t.Error("zero cell should error")
	}
	if _, err := ComputeHeatmap(aps, geom.Pt(1, 1), geom.Pt(0, 0), 0.1); err == nil {
		t.Error("inverted bounds should error")
	}
}

func TestHeatmapCellsAndTop(t *testing.T) {
	s := gaussSpectrum([]float64{45}, []float64{1})
	aps := []APSpectrum{{Pos: geom.Pt(0, 0), Spectrum: s}}
	h, err := ComputeHeatmap(aps, geom.Pt(0, 0), geom.Pt(2, 2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Vals) != 5 || len(h.Vals[0]) != 5 {
		t.Fatalf("heatmap shape %dx%d", len(h.Vals), len(h.Vals[0]))
	}
	top := h.TopCells(3)
	if len(top) != 3 {
		t.Fatalf("TopCells = %d", len(top))
	}
	// Best cell should lie along the 45° ray: x == y.
	if math.Abs(top[0].X-top[0].Y) > 0.51 {
		t.Errorf("top cell %v not on the 45° ray", top[0])
	}
	if got := h.CellCenter(0, 0); got != (geom.Pt(0, 0)) {
		t.Errorf("CellCenter = %v", got)
	}
}

func TestHeatmapASCII(t *testing.T) {
	s := gaussSpectrum([]float64{45}, []float64{1})
	aps := []APSpectrum{{Pos: geom.Pt(0, 0), Spectrum: s}}
	h, _ := ComputeHeatmap(aps, geom.Pt(0, 0), geom.Pt(2, 2), 0.5)
	out := h.ASCII(map[byte]geom.Point{'X': geom.Pt(1, 1)})
	if len(out) == 0 {
		t.Fatal("empty ASCII render")
	}
	found := false
	for i := 0; i < len(out); i++ {
		if out[i] == 'X' {
			found = true
		}
	}
	if !found {
		t.Error("mark not rendered")
	}
	_ = h.String()
}

// buildTestbedAPs wires the channel simulator to the pipeline: nAPs
// arrays around a room, each capturing nFrames frames from the client
// (with tiny client movements between frames).
func buildTestbedAPs(t *testing.T, client geom.Point, nAPs, nFrames int, rng *rand.Rand) ([]*AP, [][]FrameCapture, *geom.Floorplan) {
	t.Helper()
	var plan geom.Floorplan
	wall := geom.Material{Name: "partition", Reflectivity: 0.20, TransmissionLossDB: 10}
	plan.AddRect(geom.Pt(0, 0), geom.Pt(20, 12), wall)
	model := &channel.Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1}
	for i := 0; i < 6; i++ {
		model.Scatterers = append(model.Scatterers, channel.Scatterer{
			Pos:   geom.Pt(2+rng.Float64()*16, 2+rng.Float64()*8),
			Coeff: 0.12,
		})
	}

	apSpots := []struct {
		p      geom.Point
		orient float64
	}{
		{geom.Pt(1, 1), 0},
		{geom.Pt(19, 1), math.Pi / 2},
		{geom.Pt(19, 11), math.Pi},
		{geom.Pt(1, 11), -math.Pi / 2},
		{geom.Pt(10, 1), 0},
		{geom.Pt(10, 11), math.Pi},
	}

	sig := wifi.Preamble40()
	var aps []*AP
	var captures [][]FrameCapture
	for i := 0; i < nAPs; i++ {
		arr := array.NewLinear(apSpots[i].p, apSpots[i].orient, 8, lambda)
		arr.NinthAntenna = true
		ap := &AP{Array: arr}
		var frames []FrameCapture
		pos := client
		for f := 0; f < nFrames; f++ {
			rec := model.Receive(pos, arr, sig, channel.RxConfig{
				TxPowerDBm:    10,
				NoiseFloorDBm: -75,
				Rng:           rng,
			})
			frames = append(frames, FrameCapture{Streams: shipWindow(rec.Samples)})
			// ≤5 cm movement between frames (§4.2).
			pos = client.Add(geom.Vec{X: rng.Float64()*0.08 - 0.04, Y: rng.Float64()*0.08 - 0.04})
		}
		aps = append(aps, ap)
		captures = append(captures, frames)
	}
	return aps, captures, &plan
}

// shipWindow is what an AP ships of streams that start at the preamble:
// [DefaultSampleOffset, DefaultSampleOffset+DefaultMaxSamples) of each
// (server.Detector's cut; the server package imports this one).
func shipWindow(streams [][]complex128) [][]complex128 {
	out := make([][]complex128, len(streams))
	for k, st := range streams {
		out[k] = st[DefaultSampleOffset : DefaultSampleOffset+DefaultMaxSamples]
	}
	return out
}

func TestEndToEndLocalization(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	client := geom.Pt(7.5, 6.2)
	aps, captures, plan := buildTestbedAPs(t, client, 4, 3, rng)
	cfg := DefaultConfig(lambda)
	pos, specs, err := LocateClient(aps, captures, plan.Min, plan.Max, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("spectra = %d", len(specs))
	}
	if d := pos.Dist(client); d > 1.0 {
		t.Errorf("location error %.2f m, want < 1 m (got %v, want %v)", d, pos, client)
	}
}

func TestEndToEndUnoptimizedWorse(t *testing.T) {
	// Over a handful of clients the full pipeline should do at least
	// as well on average as the unoptimized baseline.
	rng := rand.New(rand.NewSource(43))
	clients := []geom.Point{
		geom.Pt(5, 4), geom.Pt(12, 7), geom.Pt(15.5, 3.3), geom.Pt(8, 9),
	}
	var full, unopt float64
	for _, c := range clients {
		aps, captures, plan := buildTestbedAPs(t, c, 3, 3, rng)
		p1, _, err := LocateClient(aps, captures, plan.Min, plan.Max, DefaultConfig(lambda))
		if err != nil {
			t.Fatal(err)
		}
		p2, _, err := LocateClient(aps, captures, plan.Min, plan.Max, UnoptimizedConfig(lambda))
		if err != nil {
			t.Fatal(err)
		}
		full += p1.Dist(c)
		unopt += p2.Dist(c)
	}
	t.Logf("mean error: full=%.2f m unoptimized=%.2f m", full/4, unopt/4)
	if full > unopt*1.5 {
		t.Errorf("full pipeline (%.2f) much worse than unoptimized (%.2f)", full/4, unopt/4)
	}
}

func TestProcessAPErrors(t *testing.T) {
	arr := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	ap := &AP{Array: arr}
	p := NewPipeline(DefaultConfig(lambda))
	if _, err := p.ProcessAP(ap, nil); err == nil {
		t.Error("no frames should error")
	}
	short := []FrameCapture{{Streams: make([][]complex128, 2)}}
	if _, err := p.ProcessAP(ap, short); err == nil {
		t.Error("too few streams should error")
	}
}

func TestLocateClientErrors(t *testing.T) {
	arr := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	aps := []*AP{{Array: arr}}
	if _, _, err := LocateClient(aps, nil, geom.Pt(0, 0), geom.Pt(1, 1), DefaultConfig(lambda)); err == nil {
		t.Error("misaligned captures should error")
	}
	if _, _, err := LocateClient(aps, [][]FrameCapture{nil}, geom.Pt(0, 0), geom.Pt(1, 1), DefaultConfig(lambda)); err == nil {
		t.Error("no captures at any AP should error")
	}
}

func TestConfigPresets(t *testing.T) {
	d := DefaultConfig(lambda)
	if !d.UseSuppression || !d.UseWeighting || !d.UseSymmetryRemoval {
		t.Error("DefaultConfig should enable all optimizations")
	}
	if d.SmoothingGroups != 2 || d.MaxSamples != 10 {
		t.Error("DefaultConfig should match the paper's parameters")
	}
	u := UnoptimizedConfig(lambda)
	if u.UseSuppression || u.UseWeighting || u.UseSymmetryRemoval {
		t.Error("UnoptimizedConfig should disable all optimizations")
	}
}
