package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/wifi"
)

const lambda = 0.1225

func freeSpace() *Model {
	return &Model{Wavelength: lambda, MaxReflections: 2}
}

func TestFreeSpaceSinglePath(t *testing.T) {
	m := freeSpace()
	paths := m.Paths(geom.Pt(0, 0), geom.Pt(10, 0), 0)
	if len(paths) != 1 {
		t.Fatalf("free space paths = %d, want 1", len(paths))
	}
	p := paths[0]
	if !p.Direct || p.Bounces != 0 {
		t.Error("single path should be direct")
	}
	if math.Abs(p.Length-10) > 1e-12 {
		t.Errorf("length = %v", p.Length)
	}
	// AoA from AP at (10,0) back to client at (0,0) is π.
	if math.Abs(p.AoA-math.Pi) > 1e-12 {
		t.Errorf("AoA = %v", p.AoA)
	}
	wantAmp := lambda / (4 * math.Pi * 10)
	if math.Abs(cmplx.Abs(p.Gain)-wantAmp) > 1e-12 {
		t.Errorf("gain = %v, want %v", cmplx.Abs(p.Gain), wantAmp)
	}
}

func TestPathPhaseMatchesLength(t *testing.T) {
	m := freeSpace()
	p := m.Paths(geom.Pt(0, 0), geom.Pt(7.3, 2.1), 0)[0]
	wantPhase := math.Mod(-2*math.Pi*p.Length/lambda, 2*math.Pi)
	got := cmplx.Phase(p.Gain)
	d := math.Abs(math.Mod(got-wantPhase+3*math.Pi, 2*math.Pi) - math.Pi)
	if d > 1e-9 {
		t.Errorf("phase mismatch: %v", d)
	}
}

func TestSingleWallReflection(t *testing.T) {
	// Client and AP both 2 m from a long mirror wall: one direct path
	// and one single-bounce path with the reflection at the midpoint.
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(-50, 0), geom.Pt(50, 0), geom.Metal)
	m := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1}
	tx := geom.Pt(-5, 2)
	rx := geom.Pt(5, 2)
	paths := m.Paths(tx, rx, 0)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	direct, ok := DirectPath(paths)
	if !ok {
		t.Fatal("no direct path")
	}
	if math.Abs(direct.Length-10) > 1e-9 {
		t.Errorf("direct length = %v", direct.Length)
	}
	var refl Path
	for _, p := range paths {
		if p.Bounces == 1 {
			refl = p
		}
	}
	// Image of tx is (-5,-2); image→rx length = sqrt(100+16).
	wantLen := math.Sqrt(100 + 16)
	if math.Abs(refl.Length-wantLen) > 1e-9 {
		t.Errorf("reflection length = %v, want %v", refl.Length, wantLen)
	}
	// Reflection point is (0,0); AoA from rx to it.
	wantAoA := rx.Bearing(geom.Pt(0, 0))
	if math.Abs(refl.AoA-wantAoA) > 1e-9 {
		t.Errorf("reflection AoA = %v, want %v", refl.AoA, wantAoA)
	}
	// Metal reflectivity scales the gain.
	wantAmp := geom.Metal.Reflectivity * lambda / (4 * math.Pi * wantLen)
	if math.Abs(cmplx.Abs(refl.Gain)-wantAmp) > 1e-12 {
		t.Errorf("reflection gain = %v, want %v", cmplx.Abs(refl.Gain), wantAmp)
	}
}

func TestReflectionOffSegmentRejected(t *testing.T) {
	// A short wall whose mirror point falls outside the segment must
	// produce no reflection.
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(40, 0), geom.Pt(50, 0), geom.Metal)
	m := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1}
	paths := m.Paths(geom.Pt(-5, 2), geom.Pt(5, 2), 0)
	for _, p := range paths {
		if p.Bounces == 1 {
			t.Error("reflection point off segment should be rejected")
		}
	}
}

func TestWallAttenuatesDirectPath(t *testing.T) {
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(0, -5), geom.Pt(0, 5), geom.Concrete)
	m := &Model{Plan: &plan, Wavelength: lambda}
	blocked := m.Paths(geom.Pt(-3, 0), geom.Pt(3, 0), 0)
	clear := freeSpace().Paths(geom.Pt(-3, 0), geom.Pt(3, 0), 0)
	d1, _ := DirectPath(blocked)
	d2, _ := DirectPath(clear)
	lossDB := d2.PowerDB() - d1.PowerDB()
	if math.Abs(lossDB-geom.Concrete.TransmissionLossDB) > 1e-9 {
		t.Errorf("through-wall loss = %v dB, want %v", lossDB, geom.Concrete.TransmissionLossDB)
	}
}

func TestSecondOrderReflectionExists(t *testing.T) {
	// A corridor (two parallel walls) supports a double bounce.
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(-50, 0), geom.Pt(50, 0), geom.Metal)
	plan.AddWall(geom.Pt(-50, 4), geom.Pt(50, 4), geom.Metal)
	m := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 2}
	paths := m.Paths(geom.Pt(-5, 2), geom.Pt(5, 2), 0)
	var got2 bool
	for _, p := range paths {
		if p.Bounces == 2 {
			got2 = true
			if p.Length <= 10 {
				t.Errorf("double bounce length %v should exceed direct 10", p.Length)
			}
		}
	}
	if !got2 {
		t.Error("no second-order path found in corridor")
	}
}

func TestScattererPath(t *testing.T) {
	m := freeSpace()
	m.Scatterers = []Scatterer{{Pos: geom.Pt(0, 5), Coeff: 0.5}}
	tx := geom.Pt(-5, 0)
	rx := geom.Pt(5, 0)
	paths := m.Paths(tx, rx, 0)
	// Direct plus the scatterer's two sub-paths (extended object).
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	var found bool
	wantLen := tx.Dist(geom.Pt(0, 5)) + geom.Pt(0, 5).Dist(rx)
	for _, p := range paths {
		if p.Bounces != -1 {
			continue
		}
		if math.Abs(p.Length-wantLen) < 1e-9 &&
			math.Abs(p.AoA-rx.Bearing(geom.Pt(0, 5))) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Error("primary scatterer sub-path missing")
	}
}

func TestHeightDiffStretchesPaths(t *testing.T) {
	m := freeSpace()
	flat := m.Paths(geom.Pt(0, 0), geom.Pt(5, 0), 0)[0]
	high := m.Paths(geom.Pt(0, 0), geom.Pt(5, 0), 1.5)[0]
	want := math.Sqrt(25 + 2.25)
	if math.Abs(high.Length-want) > 1e-12 {
		t.Errorf("3-D length = %v, want %v", high.Length, want)
	}
	if high.AoA != flat.AoA {
		t.Error("height difference must not change azimuthal AoA")
	}
}

func TestPathsSortedByGain(t *testing.T) {
	var plan geom.Floorplan
	plan.AddRect(geom.Pt(-20, -20), geom.Pt(20, 20), geom.Concrete)
	m := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 2}
	paths := m.Paths(geom.Pt(-5, 1), geom.Pt(7, 3), 0)
	for i := 1; i < len(paths); i++ {
		if cmplx.Abs(paths[i].Gain) > cmplx.Abs(paths[i-1].Gain)+1e-15 {
			t.Fatal("paths not sorted by descending gain")
		}
	}
}

func TestReceiveSteeringPhases(t *testing.T) {
	// Free space, no noise: the received snapshot across antennas must
	// equal gain × steering vector × signal.
	m := freeSpace()
	a := array.NewLinear(geom.Pt(10, 0), math.Pi/2, 8, lambda)
	tx := geom.Pt(0, 0)
	sig := []complex128{1, 1i, -1, 2}
	rec := m.Receive(tx, a, sig, RxConfig{TxPowerDBm: 0})
	if len(rec.Samples) != 8 || rec.NumSamples() != 4 {
		t.Fatalf("samples shape %d×%d", len(rec.Samples), rec.NumSamples())
	}
	steer := a.SteeringVector(a.Pos.Bearing(tx), lambda)
	g := rec.Paths[0].Gain
	for k := 0; k < 8; k++ {
		for i, s := range sig {
			want := g * steer[k] * s
			if cmplx.Abs(rec.Samples[k][i]-want) > 1e-12 {
				t.Fatalf("antenna %d sample %d = %v, want %v", k, i, rec.Samples[k][i], want)
			}
		}
	}
}

func TestReceiveAppliesPhaseOffsets(t *testing.T) {
	m := freeSpace()
	rng := rand.New(rand.NewSource(5))
	a := array.NewLinear(geom.Pt(10, 0), math.Pi/2, 4, lambda)
	a.RandomizePhaseOffsets(rng)
	sig := []complex128{1}
	rec := m.Receive(geom.Pt(0, 0), a, sig, RxConfig{})
	// Removing the offsets must recover the ideal steering relation.
	snap := rec.Snapshot(0)
	array.CorrectOffsets(snap, a.PhaseOffsets)
	steer := a.SteeringVector(a.Pos.Bearing(geom.Pt(0, 0)), lambda)
	ref := snap[0] / steer[0]
	for k := 1; k < 4; k++ {
		if cmplx.Abs(snap[k]/steer[k]-ref) > 1e-9 {
			t.Fatalf("offset correction failed at antenna %d", k)
		}
	}
}

func TestReceiveSNR(t *testing.T) {
	m := freeSpace()
	a := array.NewLinear(geom.Pt(5, 0), math.Pi/2, 4, lambda)
	rng := rand.New(rand.NewSource(6))
	sig := make([]complex128, 2000)
	for i := range sig {
		sig[i] = cmplx.Rect(1, rng.Float64()*2*math.Pi)
	}
	rec := m.Receive(geom.Pt(0, 0), a, sig, RxConfig{
		TxPowerDBm:    20,
		NoiseFloorDBm: -80,
		Rng:           rng,
	})
	// Expected: TX 20 dBm, FSPL amplitude λ/(4π·5) → power dB =
	// 20·log10(λ/(4π·5)), SNR = 20 + that − (−80).
	wantSNR := 20 + 20*math.Log10(lambda/(4*math.Pi*5)) + 80
	if math.Abs(rec.SNRdB-wantSNR) > 1 {
		t.Errorf("SNR = %v dB, want ≈ %v", rec.SNRdB, wantSNR)
	}
}

func TestReceivePolarizationLoss(t *testing.T) {
	m := freeSpace()
	a := array.NewLinear(geom.Pt(5, 0), math.Pi/2, 4, lambda)
	sig := []complex128{1, 1, 1, 1}
	base := m.Receive(geom.Pt(0, 0), a, sig, RxConfig{})
	att := m.Receive(geom.Pt(0, 0), a, sig, RxConfig{PolarizationLossDB: 20})
	ratio := cmplx.Abs(base.Samples[0][0]) / cmplx.Abs(att.Samples[0][0])
	if math.Abs(20*math.Log10(ratio)-20) > 1e-9 {
		t.Errorf("polarization loss ratio = %v dB", 20*math.Log10(ratio))
	}
}

func TestReceiveDelaySpread(t *testing.T) {
	// With a wideband config, a much longer reflected path lands at a
	// later sample index.
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(-200, 40), geom.Pt(200, 40), geom.Metal)
	m := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1}
	a := array.NewLinear(geom.Pt(30, 0), math.Pi/2, 2, lambda)
	sig := []complex128{1} // a single impulse exposes the delay taps
	rec := m.Receive(geom.Pt(-30, 0), a, sig, RxConfig{SampleRate: 40e6})
	// Direct 60 m; reflected ≈ sqrt(60²+80²) = 100 m → Δ40 m ≈ 5.3
	// samples at 40 Msps. The impulse occupies only sample 0, so the
	// reflected copy is clipped; direct energy must dominate sample 0.
	if cmplx.Abs(rec.Samples[0][0]) == 0 {
		t.Error("direct impulse missing at sample 0")
	}
	// Now with a longer signal the reflection shows up shifted.
	sig = make([]complex128, 20)
	sig[0] = 1
	rec = m.Receive(geom.Pt(-30, 0), a, sig, RxConfig{SampleRate: 40e6})
	shift := int(math.Round((100 - 60) / 299792458.0 * 40e6))
	if cmplx.Abs(rec.Samples[0][shift]) == 0 {
		t.Errorf("reflected impulse missing at sample %d", shift)
	}
}

func TestMinPathGainFilters(t *testing.T) {
	m := freeSpace()
	m.Scatterers = []Scatterer{{Pos: geom.Pt(0, 5), Coeff: 1e-9}}
	paths := m.Paths(geom.Pt(-5, 0), geom.Pt(5, 0), 0)
	if len(paths) != 1 {
		t.Errorf("negligible scatterer not filtered: %d paths", len(paths))
	}
}

func TestDirectPathMissing(t *testing.T) {
	if _, ok := DirectPath(nil); ok {
		t.Error("DirectPath(nil) should be false")
	}
}

func TestWallRoughnessSplitsEnergy(t *testing.T) {
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(-50, 0), geom.Pt(50, 0), geom.Metal)
	smooth := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1}
	rough := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1, WallRoughness: 0.5}
	tx, rx := geom.Pt(-5, 2), geom.Pt(5, 2)

	ps := smooth.Paths(tx, rx, 0)
	pr := rough.Paths(tx, rx, 0)
	if len(pr) <= len(ps) {
		t.Fatalf("rough wall should add sub-paths: %d vs %d", len(pr), len(ps))
	}
	// Total single-bounce energy approximately conserved (sub-paths are
	// slightly longer, so allow a few percent).
	var es, er float64
	for _, p := range ps {
		if p.Bounces == 1 {
			es += real(p.Gain)*real(p.Gain) + imag(p.Gain)*imag(p.Gain)
		}
	}
	for _, p := range pr {
		if p.Bounces == 1 {
			er += real(p.Gain)*real(p.Gain) + imag(p.Gain)*imag(p.Gain)
		}
	}
	if er > es || er < 0.7*es {
		t.Errorf("rough energy %v vs smooth %v", er, es)
	}
}

func TestWallRoughnessClamped(t *testing.T) {
	var plan geom.Floorplan
	plan.AddWall(geom.Pt(-50, 0), geom.Pt(50, 0), geom.Metal)
	m := &Model{Plan: &plan, Wavelength: lambda, MaxReflections: 1, WallRoughness: 7}
	// Roughness > 1 clamps rather than producing negative specular
	// energy; paths remain finite.
	for _, p := range m.Paths(geom.Pt(-5, 2), geom.Pt(5, 2), 0) {
		if math.IsNaN(real(p.Gain)) || math.IsNaN(imag(p.Gain)) {
			t.Fatal("NaN gain with clamped roughness")
		}
	}
}

func TestPathPowerDB(t *testing.T) {
	p := Path{Gain: complex(0.1, 0)}
	if got := p.PowerDB(); math.Abs(got+20) > 1e-12 {
		t.Errorf("PowerDB = %v, want -20", got)
	}
	if !math.IsInf(Path{}.PowerDB(), -1) {
		t.Error("zero gain should be -Inf dB")
	}
}

func TestSnapshotAccessors(t *testing.T) {
	r := &Reception{Samples: [][]complex128{{1, 2}, {3, 4}}}
	s := r.Snapshot(1)
	if s[0] != 2 || s[1] != 4 {
		t.Errorf("Snapshot = %v", s)
	}
	if r.NumSamples() != 2 {
		t.Errorf("NumSamples = %d", r.NumSamples())
	}
	empty := &Reception{}
	if empty.NumSamples() != 0 {
		t.Error("empty NumSamples should be 0")
	}
}

// randomScene returns a multipath model over a random walled room, a
// client inside it and a nine-element array with random hardware phase
// offsets, so a reception carries dozens of paths.
func randomScene(rng *rand.Rand) (*Model, geom.Point, *array.Array) {
	mats := []geom.Material{geom.Drywall, geom.Concrete, geom.Metal}
	plan := &geom.Floorplan{}
	plan.AddRect(geom.Pt(0, 0), geom.Pt(30, 16), geom.Concrete)
	pt := func() geom.Point { return geom.Pt(1+rng.Float64()*28, 1+rng.Float64()*14) }
	for i := 0; i < 6; i++ {
		plan.AddWall(pt(), pt(), mats[rng.Intn(len(mats))])
	}
	m := &Model{Plan: plan, Wavelength: lambda, MaxReflections: 2, WallRoughness: 0.7}
	for i := 0; i < 10; i++ {
		m.Scatterers = append(m.Scatterers, Scatterer{Pos: pt(), Coeff: 0.05 + 0.15*rng.Float64()})
	}
	a := array.NewLinear(pt(), rng.Float64()*2*math.Pi, 8, lambda)
	a.NinthAntenna = true
	a.RandomizePhaseOffsets(rng)
	return m, pt(), a
}

// TestReceiveTapsMatchPerPath: summing each delay tap's coefficients
// before writing the signal only reassociates the per-path sum, so on
// random rooms, narrowband and at 40 Msps, with phase offsets and
// noise, every sample stays within 1e-13 of its stream's peak of the
// per-path oracle, and the SNR and paths are the oracle's.
func TestReceiveTapsMatchPerPath(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	sig := wifi.Preamble40()
	var worst float64
	for trial := 0; trial < 24; trial++ {
		m, tx, a := randomScene(rng)
		for _, rate := range []float64{0, 40e6} {
			seed := rng.Int63()
			cfg := RxConfig{TxPowerDBm: 15, NoiseFloorDBm: -85, HeightDiff: 1.2, SampleRate: rate}
			cfg.Rng = rand.New(rand.NewSource(seed))
			got := m.Receive(tx, a, sig, cfg)
			cfg.Rng = rand.New(rand.NewSource(seed))
			want := m.ReceivePerPath(tx, a, sig, cfg)
			if len(got.Paths) != len(want.Paths) || len(got.Samples) != len(want.Samples) {
				t.Fatalf("trial %d rate %g: %d paths × %d streams, oracle %d × %d", trial, rate,
					len(got.Paths), len(got.Samples), len(want.Paths), len(want.Samples))
			}
			if d := math.Abs(got.SNRdB - want.SNRdB); d > 1e-9 {
				t.Fatalf("trial %d rate %g: SNR %g dB, oracle %g dB", trial, rate, got.SNRdB, want.SNRdB)
			}
			for k, st := range want.Samples {
				var peak float64
				for _, v := range st {
					peak = math.Max(peak, cmplx.Abs(v))
				}
				for i, v := range st {
					d := cmplx.Abs(got.Samples[k][i]-v) / peak
					worst = math.Max(worst, d)
					if d > 1e-13 {
						t.Fatalf("trial %d rate %g antenna %d sample %d: %v, oracle %v (%.3g of the peak)", trial, rate, k, i, got.Samples[k][i], v, d)
					}
				}
			}
		}
	}
	t.Logf("worst sample deviation %.3g of its stream's peak", worst)
}

func BenchmarkReceive(b *testing.B) {
	m, tx, a := randomScene(rand.New(rand.NewSource(1)))
	sig := wifi.Preamble40()
	cfg := RxConfig{TxPowerDBm: 15, NoiseFloorDBm: -85, Rng: rand.New(rand.NewSource(2))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Receive(tx, a, sig, cfg)
	}
}
