// Package testbed reconstructs the paper's experimental setup in
// simulation: one floor of a busy office (Figure 12's spirit — outer
// concrete shell, perimeter offices, interior corridor, concrete
// pillars, metal cabinets, cubicle clutter), 41 client positions spread
// roughly uniformly, six AP sites along the walls, and the capture
// machinery that turns a client transmission into per-AP antenna
// streams. Every experiment in the evaluation (§4) is a function over
// this testbed; see the experiments*.go files.
package testbed

import (
	"math"
	"math/rand"

	"repro/internal/array"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/wifi"
)

// Floor dimensions in metres, comparable to the paper's office floor.
const (
	FloorW = 40.0
	FloorH = 16.0
)

// Site is one AP placement: position and array row orientation (arrays
// mount flat against walls, broadside facing the interior).
type Site struct {
	Pos    geom.Point
	Orient float64
}

// Testbed bundles the floorplan, channel model, AP sites, and client
// positions.
type Testbed struct {
	// Plan is the office floorplan.
	Plan *geom.Floorplan
	// Model is the multipath channel over the plan.
	Model *channel.Model
	// Sites are the six AP positions ("1"–"6" in Figure 12).
	Sites []Site
	// Clients are the 41 client positions.
	Clients []geom.Point
	// Wavelength is the 2.4 GHz carrier wavelength.
	Wavelength float64
}

// Effective materials for the simulated office. Cubicle clutter soaks
// up specular energy, so effective reflectivities sit below raw
// material values; transmission losses are per surface crossing.
var (
	shellMat     = geom.Material{Name: "concrete-shell", Reflectivity: 0.40, TransmissionLossDB: 14}
	officeMat    = geom.Material{Name: "drywall-office", Reflectivity: 0.22, TransmissionLossDB: 4}
	pillarMat    = geom.Material{Name: "concrete-pillar", Reflectivity: 0.35, TransmissionLossDB: 5}
	cabinetMat   = geom.Material{Name: "metal-cabinet", Reflectivity: 0.65, TransmissionLossDB: 25}
	glassMat     = geom.Material{Name: "glass-partition", Reflectivity: 0.20, TransmissionLossDB: 2}
	scattererAmp = 0.12
)

// New builds the deterministic testbed. The same value is returned on
// every call, so experiment outputs are reproducible bit for bit.
func New() *Testbed {
	plan := &geom.Floorplan{}
	// Outer shell.
	plan.AddRect(geom.Pt(0, 0), geom.Pt(FloorW, FloorH), shellMat)
	// Perimeter offices along the bottom edge (like Figure 12's room
	// row): shared wall at y=4 with door gaps.
	for x := 0.0; x < 24; x += 6 {
		plan.AddWall(geom.Pt(x, 4), geom.Pt(x+4.6, 4), officeMat) // 1.4 m door gap
		plan.AddWall(geom.Pt(x+6, 0), geom.Pt(x+6, 4), officeMat)
	}
	// A lab with glass partition on the right.
	plan.AddWall(geom.Pt(30, 0), geom.Pt(30, 6), glassMat)
	plan.AddWall(geom.Pt(30, 6), geom.Pt(36, 6), glassMat)
	// Meeting rooms along the top edge.
	for x := 6.0; x < 30; x += 8 {
		plan.AddWall(geom.Pt(x, 12), geom.Pt(x+6.4, 12), officeMat)
		plan.AddWall(geom.Pt(x, 12), geom.Pt(x, 16), officeMat)
	}
	// Concrete pillars on the structural grid.
	for _, px := range []float64{10, 20, 30} {
		plan.AddRect(geom.Pt(px-0.4, 7.6), geom.Pt(px+0.4, 8.4), pillarMat)
	}
	// Metal cabinets.
	plan.AddWall(geom.Pt(14, 10.5), geom.Pt(17, 10.5), cabinetMat)
	plan.AddWall(geom.Pt(25, 5.2), geom.Pt(27.5, 5.2), cabinetMat)

	model := &channel.Model{
		Plan:           plan,
		Wavelength:     wifi.Wavelength(),
		MaxReflections: 2,
		WallRoughness:  0.7,
	}
	// Diffuse cubicle clutter: deterministic pseudo-random scatterers.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 18; i++ {
		model.Scatterers = append(model.Scatterers, channel.Scatterer{
			Pos:   geom.Pt(1.5+rng.Float64()*(FloorW-3), 1.5+rng.Float64()*(FloorH-3)),
			Coeff: scattererAmp * (0.6 + 0.8*rng.Float64()),
		})
	}

	tb := &Testbed{
		Plan:       plan,
		Model:      model,
		Wavelength: wifi.Wavelength(),
	}

	// Six AP sites along the walls, arrays broadside into the floor
	// (mirroring the "1"–"6" labels of Figure 12).
	tb.Sites = []Site{
		{Pos: geom.Pt(4, 0.6), Orient: 0},             // 1: bottom-left
		{Pos: geom.Pt(22, 0.6), Orient: 0},            // 2: bottom-centre
		{Pos: geom.Pt(39.4, 3), Orient: math.Pi / 2},  // 3: right wall
		{Pos: geom.Pt(34, 15.4), Orient: math.Pi},     // 4: top-right
		{Pos: geom.Pt(14, 15.4), Orient: math.Pi},     // 5: top-centre
		{Pos: geom.Pt(0.6, 11), Orient: -math.Pi / 2}, // 6: left wall
	}

	// 41 clients, roughly uniform, including spots near metal, glass,
	// and behind pillars (the "challenging" placements of §4).
	crng := rand.New(rand.NewSource(4242))
	grid := []geom.Point{}
	for y := 2.0; y <= 14; y += 3.0 {
		for x := 2.5; x <= 37.5; x += 4.5 {
			grid = append(grid, geom.Pt(x+crng.Float64()*1.2-0.6, y+crng.Float64()*1.2-0.6))
		}
	}
	// Hand-placed challenging spots: behind each pillar (relative to
	// site 1), next to the cabinets, inside the glass lab.
	hard := []geom.Point{
		geom.Pt(10.9, 8.7), geom.Pt(20.9, 8.6), geom.Pt(30.8, 8.5),
		geom.Pt(15.5, 11.1), geom.Pt(26.2, 4.6), geom.Pt(33, 3),
	}
	tb.Clients = append(tb.Clients, hard...)
	for _, p := range grid {
		if len(tb.Clients) >= 41 {
			break
		}
		if tooClose(p, tb.Clients, 1.0) || !plan.Contains(p) {
			continue
		}
		tb.Clients = append(tb.Clients, p)
	}
	return tb
}

func tooClose(p geom.Point, others []geom.Point, d float64) bool {
	for _, o := range others {
		if p.Dist(o) < d {
			return true
		}
	}
	return false
}

// CaptureOptions controls the simulated radio settings for a capture
// run.
type CaptureOptions struct {
	// Antennas is the AP row size (4, 6, or 8; the paper's Figure 16).
	Antennas int
	// Ninth adds the off-row antenna for symmetry removal.
	Ninth bool
	// Frames is how many frames to capture, with ≤MoveSigma client
	// movement between them (§4.2's semi-static data).
	Frames int
	// MoveSigma is the per-frame movement scale in metres (≤0.05 in
	// the paper).
	MoveSigma float64
	// TxPowerDBm is the client transmit power.
	TxPowerDBm float64
	// NoiseFloorDBm is the per-antenna noise power.
	NoiseFloorDBm float64
	// HeightDiff is the AP−client height difference (§4.3.1).
	HeightDiff float64
	// PolarizationLossDB models client antenna orientation (§4.3.2).
	PolarizationLossDB float64
}

// DefaultCaptureOptions returns the paper's standard setup: 8+1
// antennas, three frames with small movements, office-grade SNR.
func DefaultCaptureOptions() CaptureOptions {
	return CaptureOptions{
		Antennas:      8,
		Ninth:         true,
		Frames:        3,
		MoveSigma:     0.04,
		TxPowerDBm:    15,
		NoiseFloorDBm: -85,
	}
}

// NewArray builds the AP array for a site with the given options.
func (tb *Testbed) NewArray(site Site, opt CaptureOptions) *array.Array {
	a := array.NewLinear(site.Pos, site.Orient, opt.Antennas, tb.Wavelength)
	a.NinthAntenna = opt.Ninth
	return a
}

// CaptureClient simulates opt.Frames transmissions of the 40 Msps
// preamble from the client as received at the given site, returning
// per-frame antenna streams. The rng drives noise and inter-frame
// movement.
func (tb *Testbed) CaptureClient(client geom.Point, site Site, opt CaptureOptions, rng *rand.Rand) []core.FrameCapture {
	return tb.capture(tb.Model.Receive, tb.NewArray(site, opt), client, opt, rng)
}

// receiver synthesizes one reception: channel.Model.Receive, or its
// reference, ReceivePerPath.
type receiver func(tx geom.Point, a *array.Array, sig []complex128, cfg channel.RxConfig) *channel.Reception

// capture is CaptureClient through a given array, whatever its geometry
// and hardware phase offsets, with receive synthesizing each frame.
func (tb *Testbed) capture(receive receiver, arr *array.Array, client geom.Point, opt CaptureOptions, rng *rand.Rand) []core.FrameCapture {
	sig := wifi.Preamble40()
	frames := make([]core.FrameCapture, 0, opt.Frames)
	pos := client
	for f := 0; f < opt.Frames; f++ {
		rec := receive(pos, arr, sig, channel.RxConfig{
			TxPowerDBm:         opt.TxPowerDBm,
			NoiseFloorDBm:      opt.NoiseFloorDBm,
			PolarizationLossDB: opt.PolarizationLossDB,
			HeightDiff:         opt.HeightDiff,
			Rng:                rng,
		})
		frames = append(frames, core.FrameCapture{Streams: rec.Samples})
		if opt.MoveSigma > 0 {
			pos = client.Add(geom.Vec{
				X: (rng.Float64()*2 - 1) * opt.MoveSigma,
				Y: (rng.Float64()*2 - 1) * opt.MoveSigma,
			})
		}
	}
	return frames
}

// Cut returns what an AP ships of frames that start at the preamble, as
// CaptureClient's do: every stream cut to server.DefaultDetector's
// window (Extract from sample 0), the only length a pipeline reads.
func Cut(frames []core.FrameCapture) []core.FrameCapture {
	det := server.DefaultDetector()
	out := make([]core.FrameCapture, len(frames))
	for i, f := range frames {
		out[i].Streams = det.Extract(f.Streams, 0)
	}
	return out
}

// APsFor builds core.AP values for the given site indices with the
// capture options' geometry.
func (tb *Testbed) APsFor(siteIdx []int, opt CaptureOptions) []*core.AP {
	out := make([]*core.AP, len(siteIdx))
	for i, s := range siteIdx {
		out[i] = &core.AP{Array: tb.NewArray(tb.Sites[s], opt)}
	}
	return out
}

// Combinations returns all k-element subsets of {0..n-1}, the "all
// combinations of three, four, five, and six APs" of §4.1.
func Combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			c := make([]int, k)
			copy(c, idx)
			out = append(out, c)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	if k >= 0 && k <= n {
		rec(0, 0)
	}
	return out
}
