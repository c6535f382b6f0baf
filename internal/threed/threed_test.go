package threed

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/server"
	"repro/internal/wifi"
)

const lambda = 0.1225

func musicOpts() music.Options {
	return music.Options{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      10,
		SampleOffset:    100,
		ForwardBackward: true,
	}
}

func TestPoint3(t *testing.T) {
	p := Point3{1, 2, 3}
	if p.Plan() != geom.Pt(1, 2) {
		t.Error("Plan projection wrong")
	}
	if d := p.Dist(Point3{1, 2, 7}); math.Abs(d-4) > 1e-12 {
		t.Errorf("Dist = %v", d)
	}
}

func TestVerticalSteeringProperties(t *testing.T) {
	// Zero elevation: all elements in phase.
	v := channel.VerticalSteering(8, lambda/2, 0, lambda)
	for k, x := range v {
		if math.Abs(real(x)-1) > 1e-12 || math.Abs(imag(x)) > 1e-12 {
			t.Errorf("element %d at zero elevation = %v", k, x)
		}
	}
	// Opposite elevations conjugate.
	up := channel.VerticalSteering(4, lambda/2, 0.5, lambda)
	dn := channel.VerticalSteering(4, lambda/2, -0.5, lambda)
	for k := range up {
		if math.Abs(real(up[k])-real(dn[k])) > 1e-12 || math.Abs(imag(up[k])+imag(dn[k])) > 1e-12 {
			t.Errorf("element %d: up %v vs down %v not conjugate", k, up[k], dn[k])
		}
	}
}

func TestPathElevation(t *testing.T) {
	if phi := channel.PathElevation(10, 2.5, 1.0); math.Abs(phi-math.Atan2(1.5, 10)) > 1e-12 {
		t.Errorf("elevation = %v", phi)
	}
	if phi := channel.PathElevation(10, 1.0, 2.5); phi >= 0 {
		t.Error("client below AP should give negative elevation at client→AP sense")
	}
}

func TestElevationSpectrumRecoversAngle(t *testing.T) {
	m := &channel.Model{Wavelength: lambda}
	rng := rand.New(rand.NewSource(1))
	tx := geom.Pt(0, 0)
	rx := geom.Pt(8, 0)
	const txH, rxH = 1.0, 2.5
	rec := m.ReceiveVertical(tx, rx, txH, rxH, 8, lambda/2, wifi.Preamble40(), channel.RxConfig{
		TxPowerDBm:    10,
		NoiseFloorDBm: -85,
		Rng:           rng,
	})
	spec, err := ElevationSpectrum(rec.Samples, lambda/2, musicOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := channel.PathElevation(8, txH, rxH) // client below AP: negative
	_, bin := spec.Max()
	got := spec.Theta(bin)
	if got > math.Pi {
		got -= 2 * math.Pi
	}
	// A vertical ULA cannot tell φ from π−φ, but for |φ|<π/2 the
	// meaningful fold is just the sign region; check within 3°.
	if math.Abs(got-want) > geom.Rad(3) && math.Abs((math.Pi-got)-want) > geom.Rad(3) {
		t.Errorf("elevation peak %.1f°, want %.1f°", geom.Deg(got), geom.Deg(want))
	}
}

func TestElevationSpectrumErrors(t *testing.T) {
	if _, err := ElevationSpectrum(nil, lambda/2, musicOpts()); err == nil {
		t.Error("nil streams should error")
	}
}

// build3DScene captures one client at three dual-array APs.
func build3DScene(t *testing.T, client Point3, rng *rand.Rand) []APSpectra {
	t.Helper()
	var plan geom.Floorplan
	plan.AddRect(geom.Pt(0, 0), geom.Pt(20, 12), geom.Material{Name: "w", Reflectivity: 0.2, TransmissionLossDB: 8})
	m := &channel.Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1, WallRoughness: 0.4}
	sites := []struct {
		pos    geom.Point
		orient float64
	}{
		{geom.Pt(1, 1), 0},
		{geom.Pt(19, 2), math.Pi / 2},
		{geom.Pt(10, 11), math.Pi},
	}
	const apHeight = 2.5
	sig := wifi.Preamble40()
	cfg := core.DefaultConfig(lambda)
	cfg.UseSuppression = false // single frame per AP here
	var aps []APSpectra
	for _, s := range sites {
		arr := array.NewLinear(s.pos, s.orient, 8, lambda)
		arr.NinthAntenna = true
		recH := m.Receive(client.Plan(), arr, sig, channel.RxConfig{
			TxPowerDBm: 15, NoiseFloorDBm: -85,
			HeightDiff: apHeight - client.Z, Rng: rng,
		})
		az, err := core.ProcessAP(&core.AP{Array: arr}, []core.FrameCapture{{Streams: server.DefaultDetector().Extract(recH.Samples, 0)}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recV := m.ReceiveVertical(client.Plan(), s.pos, client.Z, apHeight, 8, lambda/2, sig, channel.RxConfig{
			TxPowerDBm: 15, NoiseFloorDBm: -85, Rng: rng,
		})
		el, err := ElevationSpectrum(recV.Samples, lambda/2, musicOpts())
		if err != nil {
			t.Fatal(err)
		}
		aps = append(aps, APSpectra{Pos: s.pos, Height: apHeight, Azimuth: az, Elevation: el})
	}
	return aps
}

func TestLocate3DEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	client := Point3{X: 12, Y: 6.5, Z: 1.2}
	aps := build3DScene(t, client, rng)
	got, err := Locate3D(aps, geom.Pt(0, 0), geom.Pt(20, 12), 0, 3, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if planErr := got.Plan().Dist(client.Plan()); planErr > 1.0 {
		t.Errorf("plan error %.2f m (got %+v)", planErr, got)
	}
	if zErr := math.Abs(got.Z - client.Z); zErr > 0.8 {
		t.Errorf("height error %.2f m (got z=%.2f, want %.2f)", zErr, got.Z, client.Z)
	}
}

func TestLocate3DErrors(t *testing.T) {
	if _, err := Locate3D(nil, geom.Pt(0, 0), geom.Pt(1, 1), 0, 1, 0.1, 0.1); err == nil {
		t.Error("no APs should error")
	}
	ap := APSpectra{Azimuth: music.NewSpectrum(360), Elevation: music.NewSpectrum(360)}
	if _, err := Locate3D([]APSpectra{ap}, geom.Pt(1, 1), geom.Pt(0, 0), 0, 1, 0.1, 0.1); err == nil {
		t.Error("inverted bounds should error")
	}
	if _, err := Locate3D([]APSpectra{ap}, geom.Pt(0, 0), geom.Pt(1, 1), 0, 1, 0, 0.1); err == nil {
		t.Error("zero cell should error")
	}
}

func TestLikelihoodPrefersTrueHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	client := Point3{X: 12, Y: 6.5, Z: 1.2}
	aps := build3DScene(t, client, rng)
	lTrue := Likelihood(client, aps)
	lWrongZ := Likelihood(Point3{X: 12, Y: 6.5, Z: 2.9}, aps)
	if lTrue <= lWrongZ {
		t.Errorf("likelihood at true height %v not above wrong height %v", lTrue, lWrongZ)
	}
}
