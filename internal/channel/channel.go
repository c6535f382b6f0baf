// Package channel simulates indoor 2.4 GHz multipath propagation
// between a client and an AP antenna array, replacing the paper's
// physical office testbed.
//
// The model is an image-method ray tracer over a floorplan: the direct
// path, first- and second-order specular reflections off walls, and a
// set of diffuse scatterers (furniture, cubicle clutter). Every path
// carries a complex gain — free-space loss, reflection coefficients,
// through-wall attenuation, and the propagation phase 2πℓ/λ — and an
// angle of arrival at the array. Paths are phase-coherent, which is
// precisely the condition that breaks plain MUSIC and motivates
// ArrayTrack's spatial smoothing (§2.3.2), and the AoAs are
// geometry-consistent, which is what the multipath suppression step
// (§2.4) exploits when the client moves a few centimetres.
package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"repro/internal/array"
	"repro/internal/geom"
)

// Path is one propagation path from client to AP.
type Path struct {
	// AoA is the arrival bearing at the AP array (radians, global
	// frame): the bearing from the array to the last interaction point
	// (or to the client, for the direct path).
	AoA float64
	// Length is the total path length in metres.
	Length float64
	// Gain is the complex baseband amplitude gain of the path,
	// including propagation phase.
	Gain complex128
	// Bounces is the number of specular reflections (0 = direct,
	// -1 = diffuse scatterer path).
	Bounces int
	// Direct marks the straight-line client→AP path.
	Direct bool
}

// PowerDB returns the path gain in dB (20·log10|gain|).
func (p Path) PowerDB() float64 {
	a := cmplx.Abs(p.Gain)
	if a <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(a)
}

// Scatterer is a point diffuse scatterer with a scattering coefficient
// in (0, 1]; it re-radiates a fraction of the incident field toward the
// AP with a random but position-dependent phase.
type Scatterer struct {
	Pos   geom.Point
	Coeff float64
}

// Model holds everything needed to trace paths on a floorplan.
type Model struct {
	// Plan is the floorplan; nil means free space.
	Plan *geom.Floorplan
	// Wavelength is the carrier wavelength in metres.
	Wavelength float64
	// MaxReflections bounds the specular reflection order (0–2).
	MaxReflections int
	// Scatterers lists diffuse scatterers.
	Scatterers []Scatterer
	// WallRoughness in [0,1] is the fraction of each specular
	// reflection's energy diverted into "rough" sub-paths that bounce
	// off fixed points displaced along the wall from the specular
	// point. The sub-paths arrive within a few degrees of the specular
	// bearing — unresolvable by an eight-element array — so each
	// reflection lobe becomes a coherent composite whose apparent peak
	// shifts when the transmitter moves a few centimetres. That is the
	// empirical behaviour behind the paper's Table 1 (reflection peaks
	// change under small movement, the direct-path peak does not).
	WallRoughness float64
}

// minPathGainDB drops paths weaker than this below the direct
// free-space gain at 1 m, keeping path lists small.
const minPathGainDB = -90.0

// roughOffsets are the along-wall displacements (metres) of the rough
// sub-scatter points relative to the specular reflection point. The
// spread of a couple of metres gives the sub-paths meaningfully
// different departure angles at the client, so a few centimetres of
// client movement rotates their relative phases by an appreciable
// fraction of a wavelength and the composite lobe genuinely moves.
var roughOffsets = []float64{-2.1, -0.65, 0.5, 1.7}

// friisAmplitude is the free-space amplitude gain λ/(4πd).
func (m *Model) friisAmplitude(d float64) float64 {
	if d < 0.1 {
		d = 0.1 // clamp inside the near field
	}
	return m.Wavelength / (4 * math.Pi * d)
}

func (m *Model) minGain() float64 {
	return m.friisAmplitude(1) * math.Pow(10, minPathGainDB/20)
}

// Paths enumerates all propagation paths from tx (client) to rx (AP
// reference position), sorted by descending gain magnitude. heightDiff
// is the AP−client antenna height difference in metres; it stretches
// every path length to its 3-D value (Appendix A's cos φ effect) while
// leaving the azimuthal AoA unchanged.
func (m *Model) Paths(tx, rx geom.Point, heightDiff float64) []Path {
	t := &trace{min: m.minGain(), heightDiff: heightDiff, wavelength: m.Wavelength}

	// Direct path.
	{
		l := t.stretch(tx.Dist(rx))
		amp := m.friisAmplitude(l)
		if m.Plan != nil {
			amp *= math.Pow(10, -m.Plan.PathLossDB(tx, rx, -1, -1)/20)
		}
		t.add(Path{
			AoA:    rx.Bearing(tx),
			Length: l,
			Gain:   cmplx.Rect(amp, -2*math.Pi*l/m.Wavelength),
			Direct: true,
		})
	}

	if m.Plan != nil && m.MaxReflections >= 1 {
		for i, w := range m.Plan.Walls {
			img := w.Seg.Mirror(tx)
			m.firstOrder(t, tx, img, rx, i, w)
			if m.MaxReflections >= 2 {
				for j := range m.Plan.Walls {
					if j != i {
						m.secondOrder(t, tx, img, rx, i, j)
					}
				}
			}
		}
	}

	for _, s := range m.Scatterers {
		// A scatterer is an extended object (furniture, cabinet): it
		// re-radiates from two fixed points, so its lobe is a coherent
		// composite that shifts when the transmitter moves slightly —
		// the same Table 1 mechanism as rough walls.
		subs := [2]geom.Point{
			s.Pos,
			s.Pos.Add(geom.Vec{X: 0.38, Y: 0.21}),
		}
		for _, sp := range subs {
			l := t.stretch(tx.Dist(sp) + sp.Dist(rx))
			amp := s.Coeff / math.Sqrt2 * m.friisAmplitude(l)
			if m.Plan != nil {
				amp *= math.Pow(10, -(m.Plan.PathLossDB(tx, sp, -1, -1)+m.Plan.PathLossDB(sp, rx, -1, -1))/20)
			}
			t.add(Path{
				AoA:     rx.Bearing(sp),
				Length:  l,
				Gain:    cmplx.Rect(amp, -2*math.Pi*l/m.Wavelength),
				Bounces: -1,
			})
		}
	}

	sort.Sort(t)
	return t.paths
}

// trace collects one Paths call's paths with each one's sort key, its
// gain magnitude, computed once as the path is kept.
type trace struct {
	paths []Path
	keys  []float64
	// min is the weakest gain magnitude kept.
	min                    float64
	heightDiff, wavelength float64
}

// stretch returns the 3-D length of a path whose floor-plane length is l.
func (t *trace) stretch(l float64) float64 {
	return math.Sqrt(l*l + t.heightDiff*t.heightDiff)
}

// add keeps p if its gain reaches min.
func (t *trace) add(p Path) {
	if a := cmplx.Abs(p.Gain); a >= t.min {
		t.paths = append(t.paths, p)
		t.keys = append(t.keys, a)
	}
}

// addReflected adds a reflected path whose Length is its floor-plane
// length and whose Gain is its real amplitude: the length is stretched
// to 3-D and the propagation phase set from it.
func (t *trace) addReflected(p Path) {
	p.Length = t.stretch(p.Length)
	p.Gain = cmplx.Rect(cmplx.Abs(p.Gain), -2*math.Pi*p.Length/t.wavelength)
	t.add(p)
}

// Len, Less and Swap sort the paths strongest first. sort.Sort runs the
// same pdqsort as sort.Slice, so equal keys keep sort.Slice's order.
func (t *trace) Len() int           { return len(t.paths) }
func (t *trace) Less(a, b int) bool { return t.keys[a] > t.keys[b] }
func (t *trace) Swap(a, b int) {
	t.paths[a], t.paths[b] = t.paths[b], t.paths[a]
	t.keys[a], t.keys[b] = t.keys[b], t.keys[a]
}

// firstOrder traces the single-bounce path(s) off wall wi into t using
// the image method: img is the transmitter mirrored across the wall;
// intersect the img→rx segment with the wall to find the reflection
// point, and verify both legs. With WallRoughness > 0 the specular path
// is accompanied by sub-paths bouncing off fixed points displaced along
// the wall.
func (m *Model) firstOrder(t *trace, tx, img, rx geom.Point, wi int, w geom.Wall) {
	refl, _, ok := geom.Seg(img, rx).Intersect(w.Seg)
	if !ok {
		return
	}
	// Reject grazing reflections at the wall endpoints.
	if refl.Dist(w.Seg.A) < 1e-6 || refl.Dist(w.Seg.B) < 1e-6 {
		return
	}
	l := tx.Dist(refl) + refl.Dist(rx)
	amp := w.Mat.Reflectivity * m.friisAmplitude(l)
	amp *= math.Pow(10, -(m.Plan.PathLossDB(tx, refl, wi, -1)+m.Plan.PathLossDB(refl, rx, wi, -1))/20)

	rough := m.WallRoughness
	if rough < 0 {
		rough = 0
	}
	if rough > 1 {
		rough = 1
	}
	t.addReflected(Path{
		AoA:     rx.Bearing(refl),
		Length:  l,
		Gain:    complex(amp*math.Sqrt(1-rough), 0),
		Bounces: 1,
	})
	if rough > 0 {
		dir := w.Seg.Dir()
		for _, off := range roughOffsets {
			p := refl.Add(dir.Scale(off))
			// Sub-scatter point must stay on the wall segment.
			if u, q := w.Seg.Project(p); u <= 0 || u >= 1 || q.Dist(p) > 1e-9 {
				continue
			}
			ls := tx.Dist(p) + p.Dist(rx)
			amps := w.Mat.Reflectivity * m.friisAmplitude(ls) *
				math.Sqrt(rough/float64(len(roughOffsets)))
			amps *= math.Pow(10, -(m.Plan.PathLossDB(tx, p, wi, -1)+m.Plan.PathLossDB(p, rx, wi, -1))/20)
			t.addReflected(Path{
				AoA:     rx.Bearing(p),
				Length:  ls,
				Gain:    complex(amps, 0),
				Bounces: 1,
			})
		}
	}
}

// secondOrder traces tx → wall wi → wall wj → rx into t via double
// mirroring; img1 is tx mirrored across wall wi.
func (m *Model) secondOrder(t *trace, tx, img1, rx geom.Point, wi, wj int) {
	w1, w2 := &m.Plan.Walls[wi], &m.Plan.Walls[wj]
	img2 := w2.Seg.Mirror(img1)
	// Reflection point on wall 2 (closest to the receiver).
	r2, _, ok := geom.Seg(img2, rx).Intersect(w2.Seg)
	if !ok {
		return
	}
	// Reflection point on wall 1.
	r1, _, ok := geom.Seg(img1, r2).Intersect(w1.Seg)
	if !ok {
		return
	}
	if r1.Dist(w1.Seg.A) < 1e-6 || r1.Dist(w1.Seg.B) < 1e-6 ||
		r2.Dist(w2.Seg.A) < 1e-6 || r2.Dist(w2.Seg.B) < 1e-6 {
		return
	}
	l := tx.Dist(r1) + r1.Dist(r2) + r2.Dist(rx)
	amp := w1.Mat.Reflectivity * w2.Mat.Reflectivity * m.friisAmplitude(l)
	amp *= math.Pow(10, -(m.Plan.PathLossDB(tx, r1, wi, wj)+
		m.Plan.PathLossDB(r1, r2, wi, wj)+
		m.Plan.PathLossDB(r2, rx, wi, wj))/20)
	t.addReflected(Path{
		AoA:     rx.Bearing(r2),
		Length:  l,
		Gain:    complex(amp, 0),
		Bounces: 2,
	})
}

// RxConfig controls one reception.
type RxConfig struct {
	// TxPowerDBm is the client transmit power; the transmitted
	// baseband signal is assumed unit-mean-power.
	TxPowerDBm float64
	// NoiseFloorDBm is the per-antenna thermal noise power.
	NoiseFloorDBm float64
	// PolarizationLossDB attenuates every path, modelling client
	// antenna orientation mismatch (§4.3.2: ~3 dB at 45°, ≥20 dB at
	// 90°).
	PolarizationLossDB float64
	// HeightDiff is the AP−client antenna height difference in metres
	// (§4.3.1, Appendix A).
	HeightDiff float64
	// SampleRate is the front-end rate, used to convert path delay
	// differences into integer sample offsets. Zero means pure
	// narrowband (all paths time-aligned).
	SampleRate float64
	// Rng drives the noise. Nil disables noise entirely.
	Rng *rand.Rand
}

// Reception is the result of simulating one transmission: per-antenna
// baseband sample streams, the traced paths, and the realized SNR.
type Reception struct {
	// Samples[k] is the stream at antenna k (including the ninth
	// antenna if the array has one).
	Samples [][]complex128
	// Paths are the traced paths, strongest first.
	Paths []Path
	// SNRdB is the mean per-antenna signal-to-noise ratio actually
	// realized.
	SNRdB float64
}

// Receive simulates the transmission of baseband signal sig (unit mean
// power, at cfg.SampleRate) from a client at tx through the channel to
// every element of array a. Hardware phase offsets configured on the
// array are applied, exactly as a real front end would bake them into
// the samples.
//
// Paths that arrive in the same sample add linearly, so each delay tap's
// per-antenna coefficients h_s[k] = Σ g_p·steer_p[k] are summed first, in
// path order, and the signal is written once per tap. A narrowband
// reception (SampleRate 0) has exactly one tap.
func (m *Model) Receive(tx geom.Point, a *array.Array, sig []complex128, cfg RxConfig) *Reception {
	paths := m.Paths(tx, a.Pos, cfg.HeightDiff)
	n := a.NumElements()
	amp := txAmp(cfg)
	offs := a.AppendElementOffsets(nil)
	var taps []tap
	var steer []complex128
	for j, shift := range shifts(paths, cfg.SampleRate) {
		i := 0
		for i < len(taps) && taps[i].shift != shift {
			i++
		}
		if i == len(taps) {
			taps = append(taps, tap{shift: shift, h: make([]complex128, n)})
		}
		g := paths[j].Gain * amp
		steer = array.AppendSteering(steer[:0], offs, paths[j].AoA, m.Wavelength)
		for k, s := range steer {
			taps[i].h[k] += g * s
		}
	}
	samples := newStreams(n, len(sig))
	for _, t := range taps {
		if t.shift >= len(sig) {
			continue // the tap arrives after the stream ends
		}
		for k, hk := range t.h {
			dst := samples[k][t.shift:]
			for i := range dst {
				dst[i] += hk * sig[i]
			}
		}
	}
	return finish(samples, len(sig), paths, a, cfg)
}

// ReceivePerPath is Receive's reference: the same reception with the
// signal written into every antenna once per path. The two differ only
// in how each tap's sum is associated, a few ulps of the stream peak,
// and draw the same noise.
func (m *Model) ReceivePerPath(tx geom.Point, a *array.Array, sig []complex128, cfg RxConfig) *Reception {
	paths := m.Paths(tx, a.Pos, cfg.HeightDiff)
	n := a.NumElements()
	ns := len(sig)
	amp := txAmp(cfg)
	samples := newStreams(n, ns)
	for j, shift := range shifts(paths, cfg.SampleRate) {
		steer := a.SteeringVector(paths[j].AoA, m.Wavelength)
		g := paths[j].Gain * amp
		for k := 0; k < n; k++ {
			gk := g * steer[k]
			dst := samples[k]
			for i := 0; i < ns-shift; i++ {
				dst[i+shift] += gk * sig[i]
			}
		}
	}
	return finish(samples, len(sig), paths, a, cfg)
}

// tap is one delay tap of a reception: the sample shift its paths share
// and their summed per-antenna coefficients.
type tap struct {
	shift int
	h     []complex128
}

// txAmp is the transmit amplitude every path gain is scaled by, after
// the polarization loss.
func txAmp(cfg RxConfig) complex128 {
	return complex(math.Pow(10, cfg.TxPowerDBm/20)*math.Pow(10, -cfg.PolarizationLossDB/20), 0)
}

// shifts returns each path's delay in whole samples at rate behind the
// shortest path, which defines sample 0; all zero for a narrowband
// reception (rate 0).
func shifts(paths []Path, rate float64) []int {
	out := make([]int, len(paths))
	if rate <= 0 {
		return out
	}
	minLen := math.Inf(1)
	for _, p := range paths {
		minLen = math.Min(minLen, p.Length)
	}
	for i, p := range paths {
		out[i] = int(math.Round((p.Length - minLen) / wavePropSpeed * rate))
	}
	return out
}

// newStreams returns n zeroed streams of ns samples on one backing array.
func newStreams(n, ns int) [][]complex128 {
	backing := make([]complex128, n*ns)
	out := make([][]complex128, n)
	for k := range out {
		out[k] = backing[k*ns : (k+1)*ns : (k+1)*ns]
	}
	return out
}

// finish applies the array's hardware phase offsets to the noiseless
// samples (n streams of ns), measures their power, adds cfg's thermal
// noise and returns the reception.
func finish(samples [][]complex128, ns int, paths []Path, a *array.Array, cfg RxConfig) *Reception {
	n := len(samples)
	var sigPower float64
	for k := 0; k < n; k++ {
		if k < len(a.PhaseOffsets) && a.PhaseOffsets[k] != 0 {
			rot := cmplx.Exp(complex(0, a.PhaseOffsets[k]))
			for i := range samples[k] {
				samples[k][i] *= rot
			}
		}
		for _, v := range samples[k] {
			sigPower += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	sigPower /= float64(n * ns)

	noisePower := math.Pow(10, cfg.NoiseFloorDBm/10)
	if cfg.Rng != nil && noisePower > 0 {
		sd := math.Sqrt(noisePower / 2)
		for k := 0; k < n; k++ {
			for i := range samples[k] {
				samples[k][i] += complex(cfg.Rng.NormFloat64()*sd, cfg.Rng.NormFloat64()*sd)
			}
		}
	}

	snr := math.Inf(1)
	if noisePower > 0 {
		snr = 10 * math.Log10(sigPower/noisePower)
	}
	return &Reception{Samples: samples, Paths: paths, SNRdB: snr}
}

const wavePropSpeed = 299792458.0

// DirectPath returns the direct path from a path list, or false if the
// tracer dropped it (fully attenuated).
func DirectPath(paths []Path) (Path, bool) {
	for _, p := range paths {
		if p.Direct {
			return p, true
		}
	}
	return Path{}, false
}

// Snapshot extracts one time-index sample vector across antennas from a
// reception: x(t) in the MUSIC formulation (Eq. 3).
func (r *Reception) Snapshot(i int) []complex128 {
	out := make([]complex128, len(r.Samples))
	for k := range r.Samples {
		out[k] = r.Samples[k][i]
	}
	return out
}

// NumSamples returns the per-antenna stream length.
func (r *Reception) NumSamples() int {
	if len(r.Samples) == 0 {
		return 0
	}
	return len(r.Samples[0])
}
