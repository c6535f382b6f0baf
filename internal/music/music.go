// Package music implements ArrayTrack's AoA spectrum computation
// (§2.3): sample correlation matrices, spatial smoothing for coherent
// multipath (§2.3.2), MUSIC pseudospectra from the noise subspace,
// array-geometry weighting (§2.3.3), and front/back symmetry removal
// with the ninth antenna (§2.3.4).
package music

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/mat"
)

// DefaultBins is the angular resolution of spectra: one bin per degree
// over the full circle.
const DefaultBins = 360

// DefaultSignalThresholdFrac is the pipeline's signal-subspace
// threshold: eigenvalues above this fraction of the largest count as
// signals. A zero Options.SignalThresholdFrac resolves to it.
const DefaultSignalThresholdFrac = 0.05

// Spectrum is an AoA pseudospectrum sampled uniformly over [0, 2π).
// Bin i covers bearing 2πi/len(P). Values are non-negative likelihood
// proxies; spectra are typically normalized to a unit maximum.
type Spectrum struct {
	P []float64
	// lender is the workspace whose scan filled this spectrum, the only
	// one Recycle will take it back into; nil for every other spectrum.
	lender *Workspace
}

// NewSpectrum returns an all-zero spectrum with n bins.
func NewSpectrum(n int) *Spectrum { return &Spectrum{P: make([]float64, n)} }

// Bins returns the number of angular bins.
func (s *Spectrum) Bins() int { return len(s.P) }

// Theta returns the bearing (radians) of bin i.
func (s *Spectrum) Theta(i int) float64 {
	return 2 * math.Pi * float64(i) / float64(len(s.P))
}

// BinOf returns the bin index nearest to bearing theta.
func (s *Spectrum) BinOf(theta float64) int {
	n := len(s.P)
	i := int(math.Round(theta/(2*math.Pi)*float64(n))) % n
	if i < 0 {
		i += n
	}
	return i
}

// BinLookup maps a bearing to its interpolation pair for an n-bin
// spectrum: the lower bin index in [0, n) and the fraction in [0, 1)
// toward bin (i+1) mod n. This is the one canonical bearing→bin
// mapping: Spectrum.At and the synthesis-layer bearing LUTs
// (core.SynthCache) both build on it, so a precomputed lookup is
// bit-compatible with a live one by construction.
func BinLookup(theta float64, n int) (int, float64) {
	nf := float64(n)
	pos := theta / (2 * math.Pi) * nf
	pos = math.Mod(pos, nf)
	if pos < 0 {
		pos += nf
		// A tiny negative remainder (|pos| below half an ulp of n)
		// rounds to exactly n here, which would index one past the
		// last bin: that bearing is the 2π seam, i.e. bin 0.
		if pos >= nf {
			pos = 0
		}
	}
	i := int(pos)
	return i, pos - float64(i)
}

// At returns the spectrum value at bearing theta with linear
// interpolation between bins (wrapping bin n−1 back to bin 0 at the 2π
// seam). This is the Pᵢ(θᵢ) lookup in the synthesis step (Eq. 8).
func (s *Spectrum) At(theta float64) float64 {
	i, frac := BinLookup(theta, len(s.P))
	return s.atBin(int32(i), frac)
}

// atBin interpolates between bin i and its circular successor for a
// BinLookup pair. Every interpolated read — At, AtBins, the steering
// table's mirror vote — goes through this one expression, which is what
// makes precomputed lookups bit-identical to live ones.
func (s *Spectrum) atBin(i int32, frac float64) float64 {
	j := i + 1
	if int(j) == len(s.P) {
		j = 0
	}
	return s.P[i]*(1-frac) + s.P[j]*frac
}

// AtBins evaluates At for precomputed bin lookups: dst[k] is the
// interpolated value for the pair (bins[k], frac[k]) as produced by
// BinLookup. dst is grown as needed and returned. The arithmetic is
// exactly At's, so batched and scalar lookups are bit-identical.
func (s *Spectrum) AtBins(bins []int32, frac []float64, dst []float64) []float64 {
	if cap(dst) < len(bins) {
		dst = make([]float64, len(bins))
	}
	dst = dst[:len(bins)]
	for k, i := range bins {
		dst[k] = s.atBin(i, frac[k])
	}
	return dst
}

// PaddedLogValues writes log(max(P[i], floor)) into dst as an (n+1)-entry
// table with dst[n] = dst[0]. A padded table turns the circular
// interpolation neighbour (i+1) mod n into the branch-free i+1, which is
// what the synthesis layer's batch accumulation loops index. Every entry
// is math.Log's value: the vector body (planes_amd64.s) is math.Log's own
// operation sequence on four lanes, and stops before the first group
// holding a bin outside math.Log's main path. dst is grown as needed and
// returned.
func (s *Spectrum) PaddedLogValues(dst []float64, floor float64) []float64 {
	n := len(s.P)
	if cap(dst) < n+1 {
		dst = make([]float64, n+1)
	}
	dst = dst[:n+1]
	for i := logVec(dst[:n], s.P, floor); i < n; i++ {
		v := s.P[i]
		if v < floor {
			v = floor
		}
		dst[i] = math.Log(v)
	}
	dst[n] = dst[0]
	return dst
}

// WindowMax returns the maximum of the circular window [start,
// start+count) of tab, 0 ≤ start < len(tab), count ≤ len(tab); -Inf for
// an empty window, NaN entries ignored. The window is at most two
// contiguous runs, split at the seam.
func WindowMax(tab []float64, start, count int) float64 {
	m := math.Inf(-1)
	if over := start + count - len(tab); over > 0 {
		m = runMax(tab[:over], m)
		count -= over
	}
	return runMax(tab[start:start+count], m)
}

// runMax folds run into the running maximum m: all of a run of four or
// more through the vector body where there is one.
func runMax(run []float64, m float64) float64 {
	if len(run) >= 4 {
		var n int
		n, m = maxVec(run, m)
		run = run[n:]
	}
	for _, v := range run {
		if v > m {
			m = v
		}
	}
	return m
}

// Max returns the largest spectrum value and its bin.
func (s *Spectrum) Max() (float64, int) {
	best, bi := math.Inf(-1), 0
	for i, v := range s.P {
		if v > best {
			best, bi = v, i
		}
	}
	return best, bi
}

// Normalize scales the spectrum to a unit maximum in place (no-op for
// an all-zero spectrum) and returns the receiver.
func (s *Spectrum) Normalize() *Spectrum {
	m, _ := s.Max()
	if m > 0 {
		for i := divVec(s.P, m); i < len(s.P); i++ {
			s.P[i] /= m
		}
	}
	return s
}

// Clone returns a deep copy.
func (s *Spectrum) Clone() *Spectrum {
	c := NewSpectrum(len(s.P))
	copy(c.P, s.P)
	return c
}

// Peak is a local maximum of a spectrum.
type Peak struct {
	// Theta is the peak bearing in radians.
	Theta float64
	// Power is the spectrum value at the peak.
	Power float64
	// Bin is the peak's bin index.
	Bin int
}

// Peaks returns the spectrum's local maxima with value at least
// minRel times the global maximum, strongest first. Neighbouring bins
// wrap circularly. Plateaus report their first bin.
func (s *Spectrum) Peaks(minRel float64) []Peak {
	return s.AppendPeaks(nil, minRel)
}

// AppendPeaks appends Peaks(minRel) to dst and returns the extended
// slice, so a caller-owned buffer can be refilled without allocating.
func (s *Spectrum) AppendPeaks(dst []Peak, minRel float64) []Peak {
	n := len(s.P)
	if n < 3 {
		return dst
	}
	// The maximum first (vector body), so the one pass over the bins
	// appends only the local maxima at or above the floor.
	max := runMax(s.P, math.Inf(-1))
	if max <= 0 {
		return dst
	}
	floor := minRel * max
	out := dst
	p, prev := s.P, s.P[n-1]
	for i, v := range p[:n-1] {
		if v > prev && v >= p[i+1] && v >= floor {
			out = append(out, Peak{Theta: s.Theta(i), Power: v, Bin: i})
		}
		prev = v
	}
	// Only the last bin's successor wraps to bin 0.
	if v := p[n-1]; v > prev && v >= p[0] && v >= floor {
		out = append(out, Peak{Theta: s.Theta(n - 1), Power: v, Bin: n - 1})
	}
	peaks := out[len(dst):]
	// Insertion sort by descending power (peak counts are tiny).
	for i := 1; i < len(peaks); i++ {
		j := i
		for j > 0 && peaks[j-1].Power < peaks[j].Power {
			peaks[j-1], peaks[j] = peaks[j], peaks[j-1]
			j--
		}
	}
	return out
}

// SnapshotsAt transposes per-antenna sample streams into per-time
// snapshot vectors, from sample offset on and using at most maxSamples
// samples (§2.1 records just 10 samples of the preamble; 0 means all).
// If the streams are shorter than offset, the offset is clamped to 0:
// better a transient-polluted spectrum than none. That leniency is for
// offline callers holding whatever frame they have; the serving path
// goes through CalibratedSnapshotsWS, which refuses such streams.
func SnapshotsAt(streams [][]complex128, offset, maxSamples int) [][]complex128 {
	return SnapshotsAtWS(&Workspace{}, streams, offset, maxSamples)
}

// Options configures AoA spectrum computation.
type Options struct {
	// Wavelength of the carrier in metres.
	Wavelength float64
	// SmoothingGroups is NG in §2.3.2; the paper settles on 2.
	SmoothingGroups int
	// SignalThresholdFrac selects D: eigenvalues above this fraction of
	// the largest count as signals (DefaultSignalThresholdFrac if zero).
	SignalThresholdFrac float64
	// MaxSignals caps D (0 means half the smoothed subarray size).
	MaxSignals int
	// Bins is the angular resolution (DefaultBins if zero).
	Bins int
	// MaxSamples limits the snapshots consumed (10 in the paper; 0
	// means all).
	MaxSamples int
	// SampleOffset skips this many leading samples before taking
	// snapshots, so the samples come from the steady part of the
	// preamble after detection rather than the detector's ramp-up.
	SampleOffset int
	// ForwardBackward enables forward-backward correlation averaging
	// before spatial smoothing, strengthening decorrelation of
	// coherent multipath on uniform linear arrays.
	ForwardBackward bool
	// CalibrationOffsets, if non-nil, are subtracted from every
	// snapshot before processing (the §3 correction). Length must
	// cover the antennas in use.
	CalibrationOffsets []float64
	// Steering supplies the precomputed steering-vector tables the
	// scans read: one matrix per (geometry, wavelength, bins) instead
	// of a(θ) recomputed for every bin of every frame, scanned in the
	// lag domain on linear arrays (packed.go). nil means the shared
	// cache (SharedSteeringCache); a private cache only isolates
	// accounting and budget.
	Steering *SteeringCache
}

// table resolves the steering table the scans of array a read.
func (o Options) table(a *array.Array) *SteeringTable {
	c := o.Steering
	if c == nil {
		c = sharedSteering
	}
	return c.Table(a, o.Wavelength, o.bins())
}

func (o Options) bins() int {
	if o.Bins <= 0 {
		return DefaultBins
	}
	return o.Bins
}

func (o Options) thresh() float64 {
	if o.SignalThresholdFrac <= 0 {
		return DefaultSignalThresholdFrac
	}
	return o.SignalThresholdFrac
}

// ComputeSpectrumWS runs the §2.3 chain for one AP, the offline entry
// point: the calibrated snapshots of the array's main-row streams (the
// ninth antenna only votes, via SymmetryRemoval), then MUSICEstimator.
// Every intermediate is drawn from ws. Only the returned spectrum, at
// unit maximum, leaves it: the caller's, freshly allocated unless
// earlier spectra were handed back with ws.Recycle.
func ComputeSpectrumWS(ws *Workspace, a *array.Array, streams [][]complex128, opt Options) (*Spectrum, error) {
	if len(streams) != a.N {
		return nil, fmt.Errorf("music: %d streams for the %d-element row", len(streams), a.N)
	}
	ws = orFresh(ws)
	snaps, err := CalibratedSnapshotsWS(ws, streams, opt.SampleOffset, opt.MaxSamples, opt.CalibrationOffsets)
	if err != nil {
		return nil, err
	}
	return MUSICEstimator.Spectrum(ws, a, snaps, opt)
}

// MUSIC evaluates the MUSIC pseudospectrum (Eq. 6)
//
//	P(θ) = 1 / (a(θ)ᴴ·E_N·E_Nᴴ·a(θ))
//
// over bins bearings, where en holds the noise-subspace eigenvectors in
// its columns and steer produces the array steering vector. The result
// is normalized to a unit maximum. This is the closure-driven oracle the
// table scans (packed.go) are tested against; no pipeline runs it.
func MUSIC(en *mat.Matrix, steer func(theta float64) []complex128, bins int) *Spectrum {
	s := NewSpectrum(bins)
	for i := 0; i < bins; i++ {
		a := steer(2 * math.Pi * float64(i) / float64(bins))
		// ‖E_Nᴴ a‖²: project onto the noise subspace.
		var denom float64
		for k := 0; k < en.Cols; k++ {
			var dot complex128
			for r := 0; r < en.Rows; r++ {
				dot += cmplx.Conj(en.At(r, k)) * a[r]
			}
			denom += real(dot)*real(dot) + imag(dot)*imag(dot)
		}
		if denom < 1e-12 {
			denom = 1e-12
		}
		s.P[i] = 1 / denom
	}
	return s.Normalize()
}

// Bartlett evaluates the conventional beamformer spectrum
// P(θ) = a(θ)ᴴ·R·a(θ) — used by symmetry removal, where the
// non-uniform 9-element geometry rules MUSIC's calibrated subspace
// structure out but plain beamforming still measures side power. Like
// MUSIC, this closure form is the oracle for the table scan.
func Bartlett(r *mat.Matrix, steer func(theta float64) []complex128, bins int) *Spectrum {
	s := NewSpectrum(bins)
	ra := make([]complex128, r.Rows)
	for i := 0; i < bins; i++ {
		a := steer(2 * math.Pi * float64(i) / float64(bins))
		r.MulVecInto(ra, a)
		v := mat.VecDot(a, ra)
		p := real(v)
		if p < 0 {
			p = 0
		}
		s.P[i] = p
	}
	return s
}

// ApplyGeometryWeighting applies the confidence window W(θ) of Eq. 7 in
// the array's local frame: bearings within 15° of the array axis, where
// a linear array's resolution collapses, carry weight |sin ψ| (ψ the
// angle off the axis) while all others carry weight 1. Because W
// expresses *confidence* in the data rather than evidence against a
// bearing, de-weighted bins are blended toward the spectrum's mean
// value — an uninformative contribution in the Eq. 8 product — instead
// of being zeroed, which would wrongly veto any client that happens to
// sit near the array's end-fire. Returns the receiver.
func (s *Spectrum) ApplyGeometryWeighting(arrayOrient float64) *Spectrum {
	neutral := s.mean()
	for i := range s.P {
		if w, ok := axisWeight(s.Theta(i), arrayOrient); ok {
			s.P[i] = w*s.P[i] + (1-w)*neutral
		}
	}
	return s
}

// mean returns the average bin value: the uninformative level Eq. 7's
// de-weighted bins are blended toward.
func (s *Spectrum) mean() float64 {
	var sum float64
	for _, v := range s.P {
		sum += v
	}
	return sum / float64(len(s.P))
}

// axisWeight returns Eq. 7's weight |sin ψ| for a bearing within 15° of
// the array axis (ψ the angle off the axis); ok is false elsewhere,
// where the weight is 1. ApplyGeometryWeighting and the steering
// table's precomputed weights (steering.go) both come from here.
func axisWeight(theta, arrayOrient float64) (w float64, ok bool) {
	psi := math.Abs(math.Remainder(theta-arrayOrient, math.Pi)) // 0..π/2 off-axis fold
	if deg := psi * 180 / math.Pi; deg < 15 {
		return math.Abs(math.Sin(psi)), true
	}
	return 1, false
}

// mirrorBearing returns a bearing's mirror image across the array axis,
// and whether the bearing lies outside the 15° axis margin so that the
// §2.3.4 vote applies to it. Shared by the scalar vote and the steering
// table's precomputed vote pairs.
func mirrorBearing(theta, arrayOrient float64) (mirror float64, ok bool) {
	if math.Abs(math.Sin(theta-arrayOrient)) < axisMarginSin {
		return 0, false
	}
	return geom.NormalizeAngle(2*arrayOrient - theta), true
}

var axisMarginSin = math.Sin(15 * math.Pi / 180)

// symmetrySuppressFactor is the attenuation applied to the weaker side
// during symmetry removal. Suppressing rather than zeroing keeps one
// mistaken side decision from vetoing the true location outright when
// several APs are fused.
const symmetrySuppressFactor = 0.05

// symmetryLoseMargin is the power ratio by which a bearing must lose to
// its mirror before it is suppressed; a margin keeps near-ties (no
// evidence either way) intact.
const symmetryLoseMargin = 1.3

// SymmetryRemoval suppresses mirror-image ambiguity in a linear-array
// spectrum (§2.3.4) using the ninth antenna: for every spectrum bin it
// compares the full-array Bartlett power at the bin's bearing against
// the power at its mirror across the array axis, and attenuates the bin
// when its mirror clearly wins. Comparing each bearing against its own
// mirror — rather than summing whole-side power — stays robust when
// coherent multipath puts genuine energy on both sides. Bearings within
// 15° of the array axis, where the mirror is almost the same direction
// and the vote is meaningless, are left untouched. Returns the
// receiver.
func SymmetryRemoval(s *Spectrum, a *array.Array, rFull *mat.Matrix, wavelength float64) *Spectrum {
	steer := func(theta float64) []complex128 {
		return a.SteeringVector(theta, wavelength)
	}
	b := Bartlett(rFull, steer, s.Bins())
	return symmetryRemovalAgainst(s, a, b)
}

// symmetryRemovalAgainst applies the mirror-vote suppression given an
// already-computed full-array Bartlett spectrum b.
func symmetryRemovalAgainst(s *Spectrum, a *array.Array, b *Spectrum) *Spectrum {
	// In place: bin i's decision reads b, never another bin of s.
	for i := range s.P {
		theta := s.Theta(i)
		mirror, ok := mirrorBearing(theta, a.Orient)
		if ok && b.At(mirror) > symmetryLoseMargin*b.At(theta) {
			s.P[i] *= symmetrySuppressFactor
		}
	}
	return s
}
