package music_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/music"
	"repro/internal/testbed"
)

// TestPeaksMatchReference: identical peak lists (==, order included)
// over random spectra, spectra quantized into plateaus and ties, spectra
// whose maximum sits on either side of the 2π seam, spectra with NaN
// bins, and the testbed's 738 frame spectra — through Peaks, and
// through AppendPeaks refilling one dirty buffer.
func TestPeaksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf []music.Peak
	check := func(what string, s *music.Spectrum, minRel float64) {
		t.Helper()
		want := music.PeaksRef(s, minRel)
		got := s.Peaks(minRel)
		buf = s.AppendPeaks(buf[:0], minRel)
		if len(got) != len(want) || len(buf) != len(want) {
			t.Fatalf("%s: %d peaks (%d appended), reference %d", what, len(got), len(buf), len(want))
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: nil-ness differs from the reference", what)
		}
		for i := range want {
			if got[i] != want[i] || buf[i] != want[i] {
				t.Fatalf("%s: peak %d is %+v (appended %+v), reference %+v", what, i, got[i], buf[i], want[i])
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(400)
		minRel := rng.Float64()
		s := music.RandomSpectrum(n, rng)
		check("random", s, minRel)

		plateau := s.Clone()
		for i := range plateau.P {
			plateau.P[i] = math.Floor(plateau.P[i]*4) / 4
		}
		check("plateau", plateau, minRel)

		for _, seamBin := range []int{0, n - 1} {
			seam := s.Clone()
			seam.P[seamBin] = 2
			check("seam peak", seam, minRel)
			seam.P[(seamBin+1)%n] = 2 // plateau straddling the seam
			check("seam plateau", seam, minRel)
		}
	}
	// NaN bins: the maximum skips them, and no comparison with one holds,
	// so neither a NaN nor its neighbours can be a peak.
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(400)
		s := music.RandomSpectrum(n, rng)
		for k := rng.Intn(4); k >= 0; k-- {
			s.P[rng.Intn(n)] = math.NaN()
		}
		check("NaN bins", s, rng.Float64())
	}
	// The serving path's own spectra, at the combine stage's floors.
	frames, arrays := testbedFrames(t)
	opt := music.Options{
		Wavelength:      testbed.DefaultAccuracyOptions().Pipeline.Wavelength,
		SmoothingGroups: 2,
		ForwardBackward: true,
	}
	for i, snaps := range frames {
		s, err := music.MUSICEstimator.Spectrum(nil, arrays[i], snaps, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, minRel := range []float64{0, 0.05, 0.1, 0.5} {
			check(fmt.Sprintf("testbed frame %d", i), s, minRel)
		}
	}
	// Hand-built shapes: the floor cuts candidates as they are found, so
	// these pin what it may and may not drop.
	for _, c := range []struct {
		name string
		p    []float64
	}{
		{"empty", nil},
		{"one bin", []float64{1}},
		{"two bins", []float64{1, 2}},
		{"three bins", []float64{1, 3, 2}},
		{"all zero", make([]float64, 16)},
		{"all equal", []float64{2, 2, 2, 2, 2}},
		{"all negative", []float64{-3, -1, -2, -1.5, -4}},
		{"negative floor of a positive peak", []float64{-3, 1, -2, -1, -4, -0.5, -6}},
		{"peak at bin 0", []float64{5, 1, 2, 1, 0, 1}},
		{"peak at bin n-1", []float64{1, 2, 1, 0, 1, 5}},
		{"plateau across the seam", []float64{4, 4, 1, 2, 1, 4}},
		{"plateau at the maximum", []float64{0, 3, 3, 3, 1, 2, 2, 0}},
		{"weak peak before the maximum", []float64{0, 1, 0, 10, 0, 2, 0}},
		{"descending peaks", []float64{0, 9, 0, 5, 0, 1, 0}},
		{"ascending peaks", []float64{0, 1, 0, 5, 0, 9, 0}},
		{"NaN bin", []float64{0, 1, math.NaN(), 3, 0, 2, 0}},
	} {
		for _, minRel := range []float64{0, 0.3, 0.5, 1, 1.5} {
			check(c.name, &music.Spectrum{P: c.p}, minRel)
		}
	}
}
