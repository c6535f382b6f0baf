package music

// Property/invariant tests for Spectrum: these pin down contracts the
// rest of the pipeline (suppression pairing, synthesis lookup, peak
// ranking) silently relies on, over randomized inputs with fixed
// seeds.

import (
	"math"
	"math/rand"
	"testing"
)

func randomSpectrum(n int, rng *rand.Rand) *Spectrum {
	s := NewSpectrum(n)
	for i := range s.P {
		s.P[i] = rng.Float64() * 10
	}
	return s
}

func TestPropNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(512)
		s := randomSpectrum(n, rng)
		once := s.Clone().Normalize()
		twice := once.Clone().Normalize()
		for i := range once.P {
			if once.P[i] != twice.P[i] {
				t.Fatalf("n=%d bin %d: %v then %v", n, i, once.P[i], twice.P[i])
			}
		}
		if m, _ := once.Max(); m != 1 {
			t.Fatalf("n=%d: normalized max %v, want 1", n, m)
		}
	}
	// All-zero spectra must survive (and stay zero).
	z := NewSpectrum(16).Normalize().Normalize()
	for i, v := range z.P {
		if v != 0 {
			t.Fatalf("zero spectrum bin %d became %v", i, v)
		}
	}
}

func TestPropBinOfThetaRoundTrip(t *testing.T) {
	for _, n := range []int{3, 7, 90, 359, 360, 361, 1024} {
		s := NewSpectrum(n)
		for i := 0; i < n; i++ {
			if got := s.BinOf(s.Theta(i)); got != i {
				t.Fatalf("n=%d: BinOf(Theta(%d)) = %d", n, i, got)
			}
		}
	}
}

func TestPropBinOfAlwaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSpectrum(360)
	for trial := 0; trial < 1000; trial++ {
		theta := (rng.Float64() - 0.5) * 50 // well outside [0, 2π)
		if i := s.BinOf(theta); i < 0 || i >= s.Bins() {
			t.Fatalf("BinOf(%v) = %d out of range", theta, i)
		}
	}
}

func TestPropPeaksSortedAndInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(512)
		s := randomSpectrum(n, rng)
		peaks := s.Peaks(0.1 + rng.Float64()*0.8)
		max, _ := s.Max()
		for i, p := range peaks {
			if i > 0 && peaks[i-1].Power < p.Power {
				t.Fatalf("trial %d: peaks not sorted descending at %d", trial, i)
			}
			if p.Theta < 0 || p.Theta >= 2*math.Pi {
				t.Fatalf("trial %d: peak bearing %v outside [0, 2π)", trial, p.Theta)
			}
			if p.Bin < 0 || p.Bin >= n {
				t.Fatalf("trial %d: peak bin %d outside spectrum", trial, p.Bin)
			}
			if s.P[p.Bin] != p.Power {
				t.Fatalf("trial %d: peak power %v disagrees with bin value %v", trial, p.Power, s.P[p.Bin])
			}
			if s.Theta(p.Bin) != p.Theta {
				t.Fatalf("trial %d: peak bearing %v disagrees with bin bearing %v", trial, p.Theta, s.Theta(p.Bin))
			}
			if p.Power > max {
				t.Fatalf("trial %d: peak power %v exceeds global max %v", trial, p.Power, max)
			}
		}
	}
}

// peaksRef is Spectrum.Peaks as it stood before the neighbour carry:
// both neighbours indexed modulo n on every bin, a fresh slice grown by
// append. TestPeaksMatchReference pins the rewrite against it.
func peaksRef(s *Spectrum, minRel float64) []Peak {
	n := len(s.P)
	if n < 3 {
		return nil
	}
	max, _ := s.Max()
	if max <= 0 {
		return nil
	}
	var peaks []Peak
	for i := 0; i < n; i++ {
		prev := s.P[(i-1+n)%n]
		next := s.P[(i+1)%n]
		v := s.P[i]
		if v > prev && v >= next && v >= minRel*max {
			peaks = append(peaks, Peak{Theta: s.Theta(i), Power: v, Bin: i})
		}
	}
	for i := 1; i < len(peaks); i++ {
		j := i
		for j > 0 && peaks[j-1].Power < peaks[j].Power {
			peaks[j-1], peaks[j] = peaks[j], peaks[j-1]
			j--
		}
	}
	return peaks
}

func TestPropAtInterpolationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := randomSpectrum(128, rng)
	max, _ := s.Max()
	for trial := 0; trial < 500; trial++ {
		theta := (rng.Float64() - 0.5) * 30
		v := s.At(theta)
		if v < 0 || v > max {
			t.Fatalf("At(%v) = %v outside [0, %v]", theta, v, max)
		}
	}
}

// TestAtSeamRegression pins the 2π-seam fix: a bearing whose remainder
// is a tiny negative number used to round to exactly n after the +n
// adjustment and index one past the last bin (a panic), and bearings
// just under 2π must interpolate bin n−1 toward bin 0, not toward a
// phantom bin n.
func TestAtSeamRegression(t *testing.T) {
	for _, n := range []int{3, 359, 360, 1024} {
		s := NewSpectrum(n)
		for i := range s.P {
			s.P[i] = float64(i + 1)
		}
		seams := []float64{
			0, -1e-18, 1e-18, -1e-300, 2 * math.Pi, -2 * math.Pi,
			math.Nextafter(2*math.Pi, 0), math.Nextafter(2*math.Pi, 4),
			-math.Nextafter(2*math.Pi, 0), 4 * math.Pi, -6 * math.Pi,
		}
		for _, theta := range seams {
			i, frac := BinLookup(theta, n)
			if i < 0 || i >= n || frac < 0 || frac >= 1 {
				t.Fatalf("n=%d: BinLookup(%v) = (%d, %v) out of range", n, theta, i, frac)
			}
			v := s.At(theta) // must not panic
			lo, hi := s.P[i], s.P[(i+1)%n]
			if hi < lo {
				lo, hi = hi, lo
			}
			if v < lo || v > hi {
				t.Fatalf("n=%d: At(%v) = %v outside its bin pair [%v, %v]", n, theta, v, lo, hi)
			}
		}
		// Approaching the seam from below must converge to bin 0's
		// value, interpolating across the wraparound.
		want := s.P[n-1] + (s.P[0]-s.P[n-1])*0.999
		eps := math.Abs(s.P[0]-s.P[n-1]) * 2e-3
		theta := 2 * math.Pi * (float64(n) - 0.001) / float64(n)
		if v := s.At(theta); math.Abs(v-want) > eps {
			t.Fatalf("n=%d: At just below 2π = %v, want ≈%v (wraparound toward bin 0)", n, v, want)
		}
	}
}

// TestAtBinsMatchesAt: batched evaluation over precomputed lookups is
// bit-identical to the scalar path, including at the seam.
func TestAtBinsMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{3, 90, 360} {
		s := randomSpectrum(n, rng)
		thetas := []float64{0, -1e-18, 2 * math.Pi, math.Nextafter(2*math.Pi, 0)}
		for trial := 0; trial < 200; trial++ {
			thetas = append(thetas, (rng.Float64()-0.5)*30)
		}
		bins := make([]int32, len(thetas))
		frac := make([]float64, len(thetas))
		for k, theta := range thetas {
			i, f := BinLookup(theta, n)
			bins[k] = int32(i)
			frac[k] = f
		}
		got := s.AtBins(bins, frac, nil)
		for k, theta := range thetas {
			if want := s.At(theta); got[k] != want {
				t.Fatalf("n=%d: AtBins[%d] = %v, At(%v) = %v — not bit-identical", n, k, got[k], theta, want)
			}
		}
	}
}

func TestPaddedLogValues(t *testing.T) {
	s := NewSpectrum(4)
	copy(s.P, []float64{0.5, 1e-9, 0.25, 1})
	tab := s.PaddedLogValues(nil, 1e-6)
	if len(tab) != 5 {
		t.Fatalf("padded length %d, want 5", len(tab))
	}
	for i, want := range []float64{math.Log(0.5), math.Log(1e-6), math.Log(0.25), 0, math.Log(0.5)} {
		if tab[i] != want || math.Signbit(tab[i]) != math.Signbit(want) {
			t.Fatalf("entry %d = %v, want %v (bin 1 floored, entry 4 the wrap pad)", i, tab[i], want)
		}
	}
	// Reuse must not reallocate.
	tab2 := s.PaddedLogValues(tab, 1e-6)
	if &tab2[0] != &tab[0] {
		t.Fatal("PaddedLogValues reallocated despite sufficient capacity")
	}
}
