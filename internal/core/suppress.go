// Package core implements ArrayTrack's primary contribution: the
// multipath suppression algorithm (§2.4), AoA spectra synthesis into a
// position likelihood with hill-climbing refinement (§2.5), successive
// interference cancellation for colliding frames (§4.3.5), and the
// System type that glues per-AP processing into end-to-end location
// estimates.
package core

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/music"
)

// DefaultPeakMatchTolDeg is the bearing tolerance used to decide that a
// peak "did not change" between frames: the paper's microbenchmark uses
// five degrees.
const DefaultPeakMatchTolDeg = 5.0

// DefaultPeakFloor is the relative power below which local maxima are
// ignored as noise ripple during peak pairing.
const DefaultPeakFloor = 0.08

// suppressFactor is the attenuation applied to lobes identified as
// reflections. Attenuating instead of zeroing means one wrong removal
// reduces, rather than vetoes, the true location's likelihood in the
// Eq. 8 product.
const suppressFactor = 0.05

// SuppressMultipath implements the §2.4 algorithm (Figure 8): given two
// or three AoA spectra from frames captured close together in time
// (≤100 ms apart, during which small client movements perturb
// reflection-path peaks but not the direct-path peak), it takes the
// first spectrum as the primary and suppresses every peak that is not
// matched, within tolDeg degrees, by a peak in any of the other
// spectra. Requiring a match in just one other frame keeps the
// occasionally wobbly direct-path peak (Table 1 puts its stability
// around 90%, not 100%) while reflections — which move on essentially
// every small displacement — still get caught. The primary is not
// modified; a new spectrum is returned.
//
// With fewer than two spectra the primary (or nil) is returned
// unchanged, per step 1 of the algorithm.
func SuppressMultipath(spectra []*music.Spectrum, tolDeg float64) *music.Spectrum {
	if len(spectra) == 0 {
		return nil
	}
	out, _ := suppressMultipath(&music.Workspace{}, spectra[0], len(spectra), precomputed(spectra), tolDeg)
	return out
}

// frameSource yields the spectrum of frame i of a frame group;
// suppressMultipath asks it only for frames after the primary.
type frameSource func(i int) (*music.Spectrum, error)

// precomputed is the frame source of a group whose spectra are at hand.
func precomputed(spectra []*music.Spectrum) frameSource {
	return func(i int) (*music.Spectrum, error) { return spectra[i], nil }
}

// suppressMultipath is SuppressMultipath over n frames: the primary, and
// frames 1 … n−1 taken from frame on demand, in order, each at most
// once. Frame 1 is always taken; a later frame only while some primary
// peak is still unmatched, since a peak one frame matches stays kept
// whatever the others hold. The primary's peak list is filtered in
// place down to its unmatched peaks, whose lobes are then attenuated in
// peak order, so the result is the eager algorithm's exactly. Both peak
// lists live in the workspace; the result is lent by it.
func suppressMultipath(ws *music.Workspace, primary *music.Spectrum, n int, frame frameSource, tolDeg float64) (*music.Spectrum, error) {
	if n < 2 {
		return ws.CloneSpectrum(primary), nil
	}
	if tolDeg <= 0 {
		tolDeg = DefaultPeakMatchTolDeg
	}
	s, err := frame(1)
	if err != nil {
		return nil, err
	}
	lists := ws.PeakLists([]*music.Spectrum{primary, s}, DefaultPeakFloor)
	unmatched := lists[0]
	for i := 2; ; i++ {
		unmatched = slices.DeleteFunc(unmatched, func(pk music.Peak) bool {
			return matchInPeaks(lists[1], pk.Theta, tolDeg)
		})
		if len(unmatched) == 0 || i == n {
			break
		}
		if s, err = frame(i); err != nil {
			return nil, err
		}
		// Written back into the workspace's list, so a grown buffer is
		// kept for the next group.
		lists[1] = s.AppendPeaks(lists[1][:0], DefaultPeakFloor)
	}
	out := ws.CloneSpectrum(primary)
	for _, pk := range unmatched {
		removeLobe(out, pk.Bin)
	}
	return out, nil
}

func hasMatchingPeak(s *music.Spectrum, theta, tolDeg float64) bool {
	return matchInPeaks(s.Peaks(DefaultPeakFloor), theta, tolDeg)
}

func matchInPeaks(peaks []music.Peak, theta, tolDeg float64) bool {
	for _, pk := range peaks {
		if geom.AngleDiff(pk.Theta, theta) <= geom.Rad(tolDeg) {
			return true
		}
	}
	return false
}

// removeLobe attenuates the lobe containing bin by suppressFactor: it
// walks downhill from the peak in both directions until the spectrum
// turns back up (a valley) or a full half-circle is covered.
func removeLobe(s *music.Spectrum, bin int) {
	n := s.Bins()
	limit := n / 2
	s.P[bin] *= suppressFactor
	for dir := -1; dir <= 1; dir += 2 {
		prev := math.Inf(1)
		for step := 1; step <= limit; step++ {
			i := ((bin+dir*step)%n + n) % n
			v := s.P[i]
			if v > prev {
				break // climbing again: next lobe
			}
			prev = v
			s.P[i] *= suppressFactor
		}
	}
}

// RemovePeaksNear zeroes the lobes of s around each given bearing
// (within tolDeg): the successive-interference-cancellation step of
// §4.3.5 subtracts the first colliding packet's bearings from the
// second packet's combined spectrum. Returns a new spectrum.
func RemovePeaksNear(s *music.Spectrum, bearings []float64, tolDeg float64) *music.Spectrum {
	out := s.Clone()
	for _, pk := range s.Peaks(DefaultPeakFloor) {
		for _, b := range bearings {
			if geom.AngleDiff(pk.Theta, b) <= geom.Rad(tolDeg) {
				removeLobe(out, pk.Bin)
				break
			}
		}
	}
	return out
}

// PeakStability classifies how the peaks of spectrum b moved relative
// to spectrum a (the Table 1 microbenchmark): it returns whether the
// peak nearest refBearing (the direct path) stayed within tolDeg, and
// whether every other peak did.
func PeakStability(a, b *music.Spectrum, refBearing, tolDeg float64) (directSame, reflectionsSame bool) {
	apeaks := a.Peaks(DefaultPeakFloor)
	if len(apeaks) == 0 {
		return false, true
	}
	directSame = true
	reflectionsSame = true
	// Find the peak of a nearest the reference (direct-path) bearing.
	bestIdx, bestDiff := -1, math.Inf(1)
	for i, pk := range apeaks {
		if d := geom.AngleDiff(pk.Theta, refBearing); d < bestDiff {
			bestIdx, bestDiff = i, d
		}
	}
	for i, pk := range apeaks {
		matched := hasMatchingPeak(b, pk.Theta, tolDeg)
		if i == bestIdx {
			directSame = matched
		} else if !matched {
			reflectionsSame = false
		}
	}
	return directSame, reflectionsSame
}
