package music

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/mat"
)

// needAVX2 skips a test or benchmark of the vector bodies where the CPU
// has none.
func needAVX2(tb testing.TB) {
	if Kernels() != "avx2" {
		tb.Skip("this CPU has no AVX2: the Go loops are the only kernel set")
	}
}

// underBothKernelSets runs f over the Go loops alone and over the
// machine's vector bodies, so neither path can rot behind the other.
func underBothKernelSets(t *testing.T, f func(t *testing.T)) {
	t.Run("generic", func(t *testing.T) {
		defer UseGoKernels()()
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		needAVX2(t)
		f(t)
	})
}

// benchBothKernelSets is underBothKernelSets for a kernel benchmark.
func benchBothKernelSets(b *testing.B, scan func()) {
	b.Run("generic", func(b *testing.B) {
		defer UseGoKernels()()
		benchNoAllocs(b, scan)
	})
	b.Run("avx2", func(b *testing.B) {
		needAVX2(b)
		benchNoAllocs(b, scan)
	})
}

// laneValues are the hand-built lanes every routine must carry as its
// Go loop does: NaN, ±Inf, ±0, subnormals, and values a hair either
// side of the clamp and of the guard the finishing pass is given.
const testGuard = 0.25

var laneValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-12, math.Nextafter(1e-12, 0), math.Nextafter(1e-12, 1), -1e-12,
	testGuard, math.Nextafter(testGuard, 0), math.Nextafter(testGuard, 1),
	1, -1, 3.5,
}

// kernelLens are the bin counts of the issue: every tail, the
// no-vector case, and the shipped shapes.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 90, 360, 361, 720}

// sameBits fails unless got and want agree bit for bit; two NaNs agree
// whatever their payloads, which an instruction's operand order picks.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins against %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: bin %d of %d: vector body %v (%#x), Go loop %v (%#x)",
				what, i, len(want), g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// offsetCopy returns a copy of v that starts off elements into a larger
// backing array, so the vector loads and stores are unaligned.
func offsetCopy(v []float64, off int) []float64 {
	return append(make([]float64, off, off+len(v)+4), v...)[off:]
}

// fillLanes fills v with random values (hand-built lanes sprinkled in
// when special is set, so every lane position sees each).
func fillLanes(rng *rand.Rand, v []float64, special bool) {
	for i := range v {
		v[i] = rng.NormFloat64()
		if special && rng.Intn(3) == 0 {
			v[i] = laneValues[rng.Intn(len(laneValues))]
		}
	}
}

// randomPlanes is a lag-major table of cols columns holding anything at
// all: planeSums and the vote read its planes, nothing else.
func randomPlanes(rng *rand.Rand, bins, cols, row int, special bool) *SteeringTable {
	tab := &SteeringTable{bins: bins, n: cols, row: row}
	tab.re, tab.im = make([]float64, cols*bins), make([]float64, cols*bins)
	fillLanes(rng, tab.re, special)
	fillLanes(rng, tab.im, special)
	return tab
}

// TestPlaneKernelsMatchGo: every routine of planes_amd64.s == the Go
// loop it stands in for, bit for bit, each driven through the smallest
// function of packed.go that holds the loop — once with the Go bodies
// alone, once with the vector bodies — over every tail length, unaligned
// slices, term counts either side of the fused-six pass, and the
// hand-built lanes above.
func TestPlaneKernelsMatchGo(t *testing.T) {
	needAVX2(t)
	// both runs f under each set on its own copy of p (off elements into
	// a larger backing) and compares what it left there.
	both := func(what string, p []float64, off int, f func(p []float64)) {
		t.Helper()
		want, got := offsetCopy(p, off), offsetCopy(p, off)
		restore := UseGoKernels()
		f(want)
		restore()
		f(got)
		sameBits(t, what, got, want)
	}
	rng := rand.New(rand.NewSource(2201))

	t.Run("planeSums", func(t *testing.T) {
		for _, n := range kernelLens {
			for off := 0; off < 4; off++ {
				for terms := 0; terms <= 8; terms++ {
					for _, special := range []bool{false, true} {
						k0 := rng.Intn(2)
						// A bin count past n: the columns are unaligned too.
						tab := randomPlanes(rng, n+off, k0+terms+1, 0, special)
						cRe, cIm := make([]float64, terms), make([]float64, terms)
						fillLanes(rng, cRe, special)
						fillLanes(rng, cIm, special)
						c0 := rng.NormFloat64()
						both(fmt.Sprintf("n=%d off=%d terms=%d special=%v", n, off, terms, special),
							make([]float64, n), off, func(p []float64) { planeSums(p, c0, cRe, cIm, tab, k0) })
					}
				}
			}
		}
	})

	t.Run("finishMUSIC", func(t *testing.T) {
		const rows, cols = 4, 2
		en := randomNoiseSubspace(rng, rows, cols)
		for _, n := range kernelLens {
			tab := randomPlanes(rng, n+3, rows, rows, false)
			ws := &Workspace{}
			musicWithTable(ws, en, tab, false) // packs en into ws, sizes its scratch
			var fired []uint64                 // guard fallbacks, call by call
			f := func(p []float64) {
				before := ws.GuardFallbacks()
				finishMUSIC(ws, p, testGuard, tab, rows, cols)
				fired = append(fired, ws.GuardFallbacks()-before)
			}
			for off := 0; off < 4; off++ {
				for _, special := range []bool{false, true} {
					p := make([]float64, n)
					fillLanes(rng, p, special)
					if !special {
						for i := range p {
							p[i] = testGuard + math.Abs(p[i]) // no bin guarded: one uninterrupted run
						}
					}
					both(fmt.Sprintf("n=%d off=%d special=%v", n, off, special), p, off, f)
				}
			}
			// The maximum in each lane of the first, a middle and the last
			// group, and in the tail; and a guarded bin in each.
			for at := 0; at < n; at++ {
				if at >= 8 && at < n-8 && at/4 != n/8 {
					continue
				}
				p := make([]float64, n)
				for i := range p {
					p[i] = 2 + rng.Float64()
				}
				p[at] = 1
				both(fmt.Sprintf("n=%d maximum at %d", n, at), p, 1, f)
				p[at] = testGuard / 2
				both(fmt.Sprintf("n=%d guarded bin at %d", n, at), p, 1, f)
			}
			for i := 0; i < len(fired); i += 2 {
				if fired[i] != fired[i+1] {
					t.Fatalf("n=%d call %d: %d guard fallbacks under the Go loops, %d under the vector bodies", n, i/2, fired[i], fired[i+1])
				}
			}
		}
	})

	t.Run("Normalize", func(t *testing.T) {
		for _, n := range kernelLens {
			for off := 0; off < 4; off++ {
				for _, special := range []bool{false, true} {
					p := make([]float64, n)
					fillLanes(rng, p, special)
					both(fmt.Sprintf("n=%d off=%d special=%v", n, off, special), p, off,
						func(p []float64) { (&Spectrum{P: p}).Normalize() })
				}
			}
		}
	})

	// The vote on a one-element row plus the "ninth" antenna: column 0
	// and column 1 of the table are then, bin by bin, the lanes of both
	// plane sums and of the combine (er, ei), all hand-built.
	t.Run("vote", func(t *testing.T) {
		for _, n := range kernelLens {
			for _, row := range []int{1, 2, 8} {
				for _, special := range []bool{false, true} {
					tab := randomPlanes(rng, n, row+1, row, special)
					rs := []*mat.Matrix{randomHermitian(rng, row+1), mat.New(row+1, row+1), mat.New(row+1, row+1)}
					for i := 0; i <= row; i++ {
						rs[2].Data[i*(row+1)+i] = complex(-3-rng.Float64(), 0) // every bin negative: all clamped
					}
					if special {
						rs[0].Data[rng.Intn(len(rs[0].Data))] = complex(laneValues[rng.Intn(len(laneValues))], math.Copysign(0, -1))
					}
					for k, r := range rs {
						ws := &Workspace{}
						both(fmt.Sprintf("n=%d row=%d special=%v R#%d", n, row, special, k), make([]float64, n), 0,
							func(p []float64) { copy(p, bartlettLagScan(ws, r, tab).P) })
					}
				}
			}
		}
	})

	// TestLagMUSICGuardFallback's rank-one subspace, end to end: the same
	// bins, the same number of guard fallbacks.
	t.Run("guard subspace", func(t *testing.T) {
		a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
		tab := NewSteeringTable(a, lambda, DefaultBins)
		r := mat.New(8, 8)
		r.OuterAccumulate(tab.Vector(65), 1)
		noise, _, _, err := Subspaces(r, 0.05, 4)
		if err != nil {
			t.Fatal(err)
		}
		var fired [2]uint64
		run := 0
		both("rank-one subspace", make([]float64, DefaultBins), 0, func(p []float64) {
			ws := &Workspace{}
			copy(p, MUSICWithTableWS(ws, noise, tab).P)
			fired[run] = ws.GuardFallbacks()
			run++
		})
		if fired[0] == 0 || fired[0] != fired[1] {
			t.Fatalf("guard fallbacks: Go loops %d, vector bodies %d (want equal, non-zero)", fired[0], fired[1])
		}
	})
}

// BenchmarkPlaneSums is the streaming kernel alone at the two shipped
// shapes, 360 bins: the 7-row MUSIC scan's six lags from column 1, and
// one of the vote's 8-term cross-column sums from column 0.
func BenchmarkPlaneSums(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tab := randomPlanes(rng, DefaultBins, 9, 8, false)
	cRe, cIm := make([]float64, 8), make([]float64, 8)
	fillLanes(rng, cRe, false)
	fillLanes(rng, cIm, false)
	p := make([]float64, DefaultBins)
	for _, shape := range []struct {
		name      string
		terms, k0 int
	}{{"music6", 6, 1}, {"vote8", 8, 0}} {
		b.Run(shape.name, func(b *testing.B) {
			benchBothKernelSets(b, func() { planeSums(p, 1, cRe[:shape.terms], cIm[:shape.terms], tab, shape.k0) })
		})
	}
}
