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
			t.Fatalf("%s: bin %d of %d: %v (%#x), want %v (%#x)",
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
		noise, _, _, err := SubspacesWS(nil, r, 0.05, 4)
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

	t.Run("realForm", func(t *testing.T) {
		// Every order and smoothing count, 1 to 2n snapshots, special
		// lanes (NaN, ±Inf, −0, huge) included: the padded lanes and the
		// lower triangle the vector body also fills are never read.
		for n := 2; n <= 17; n++ {
			for ng := 1; ng < n; ng++ {
				for _, special := range []bool{false, true} {
					snaps := make([][]complex128, 1+rng.Intn(2*n))
					for i := range snaps {
						re, im := make([]float64, n), make([]float64, n)
						fillLanes(rng, re, special)
						fillLanes(rng, im, special)
						snaps[i] = make([]complex128, n)
						for k := range snaps[i] {
							snaps[i][k] = complex(re[k], im[k])
						}
					}
					sub := n - ng + 1
					both(fmt.Sprintf("n=%d ng=%d snapshots=%d special=%v", n, ng, len(snaps), special),
						make([]float64, sub*sub), 0, func(p []float64) {
							ws := &Workspace{}
							realForm(ws, snaps, n, ng)
							for k := 0; k < sub; k++ {
								copy(p[k*sub+k:(k+1)*sub], ws.sym[k*sub+k:(k+1)*sub])
							}
						})
				}
			}
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

// logOracle is the table PaddedLogValues must write: the clamp, then
// math.Log, bin by bin, then the wrap pad.
func logOracle(src []float64, floor float64) []float64 {
	want := make([]float64, len(src)+1)
	for i, v := range src {
		if v < floor {
			v = floor
		}
		want[i] = math.Log(v)
	}
	want[len(src)] = want[0]
	return want
}

// outsideLogMainPath are the inputs math.Log answers by a special case:
// the vector body must stop before a group of four holding one.
var outsideLogMainPath = []float64{
	0, math.Copysign(0, -1), -1, 5e-324, math.Nextafter(0x1p-1022, 0), math.Inf(1), math.NaN(),
}

// TestLogTableEqualsMathLog: every entry PaddedLogValues writes is
// math.Log's bit pattern, under both kernel sets — over every tail
// length, unaligned slices, the table written in place and apart, the
// whole normal range, and the inputs the vector body hands back.
func TestLogTableEqualsMathLog(t *testing.T) {
	underBothKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2301))
		// check runs src (off elements into a larger backing) through
		// PaddedLogValues into a table of its own and in place.
		check := func(what string, src []float64, off int, floor float64) {
			t.Helper()
			want := logOracle(src, floor)
			apart := offsetCopy(src, off)
			sameBits(t, what+" apart", (&Spectrum{P: apart}).PaddedLogValues(offsetCopy(want, (off+1)%4), floor), want)
			sameBits(t, what+" source left alone", apart, src)
			inPlace := offsetCopy(src, off)
			sameBits(t, what+" in place", (&Spectrum{P: inPlace}).PaddedLogValues(inPlace, floor), want)
		}
		normal := func() float64 { // uniform over the bit patterns of the positive normal range
			return math.Float64frombits(uint64(1+rng.Intn(2046))<<52 | rng.Uint64()>>12)
		}
		for _, n := range append(kernelLens, 1<<16) {
			for off := 0; off < 4; off++ {
				src := make([]float64, n)
				for i := range src {
					src[i] = normal()
				}
				check(fmt.Sprintf("normal range n=%d off=%d", n, off), src, off, math.Inf(-1))
				for i := range src {
					src[i] = rng.Float64() // the production shape: a unit-maximum spectrum, floored
				}
				check(fmt.Sprintf("floored n=%d off=%d", n, off), src, off, 1e-6)
			}
		}
		// One exactly, the extremes of the normal range, and 2ᵏ (f = 0) and
		// √2/2·2ᵏ (the renormalisation's comparison) with both neighbours.
		edges := []float64{1, math.MaxFloat64, 0x1p-1022, 1e-6}
		for k := -40; k <= 40; k++ {
			for _, x := range []float64{math.Ldexp(1, k), math.Ldexp(math.Sqrt2/2, k)} {
				edges = append(edges, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
			}
		}
		for off := 0; off < 4; off++ {
			check(fmt.Sprintf("edges off=%d", off), edges, off, math.Inf(-1))
		}
		if got := (&Spectrum{P: []float64{1, 1, 1, 1, 1}}).PaddedLogValues(nil, 1e-6); math.Signbit(got[0]) || math.Signbit(got[4]) {
			t.Fatalf("log 1 = %v, %v: a log table must hold +0, never −0", got[0], got[4])
		}
		// A special case at every position of the first, a middle and the
		// last group and of the tail: the table is math.Log's all the same,
		// unclamped and clamped, and the vector body stopped before the group.
		const n = 23
		for _, x := range outsideLogMainPath {
			for at := 0; at < n; at++ {
				src := make([]float64, n)
				for i := range src {
					src[i] = normal()
				}
				src[at] = x
				for _, floor := range []float64{math.Inf(-1), 0, 1e-6} {
					check(fmt.Sprintf("%v at %d, floor %v", x, at, floor), src, 1, floor)
				}
				if Kernels() == "avx2" {
					if got, want := logVec(make([]float64, n), src, math.Inf(-1)), at&^3; got != want {
						t.Fatalf("%v at %d of %d: the vector body took %d bins, want %d", x, at, n, got, want)
					}
				}
			}
		}
	})
}

// scanWindowMax is core.rangeMax as it stood before WindowMax replaced
// it — one comparison and one wrap test per element — kept as the oracle.
func scanWindowMax(tab []float64, start, count int) float64 {
	m := math.Inf(-1)
	idx := start
	for k := 0; k < count; k++ {
		if v := tab[idx]; v > m {
			m = v
		}
		idx++
		if idx == len(tab) {
			idx = 0
		}
	}
	return m
}

// TestWindowMaxMatchesScan: WindowMax == the element-by-element scan
// under both kernel sets, for every start of every table size, window
// lengths either side of the vector body's four bins and up to the
// whole table, wrapping with either run short, the maximum in each
// lane, in the overlapping tail and on either side of the seam, NaN
// entries and ties.
func TestWindowMaxMatchesScan(t *testing.T) {
	underBothKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2302))
		for _, n := range []int{90, 360, 361, 720} {
			logs, withNaN, equal := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range logs {
				logs[i] = math.Log(1e-6 + rng.Float64())
				withNaN[i], equal[i] = logs[i], -2.5
				if rng.Intn(4) == 0 {
					withNaN[i] = math.NaN()
				}
			}
			check := func(what string, tab []float64, start, count int) {
				t.Helper()
				if got, want := WindowMax(tab, start, count), scanWindowMax(tab, start, count); got != want {
					t.Fatalf("n=%d %s window [%d,+%d): WindowMax %v, the scan %v", n, what, start, count, got, want)
				}
			}
			for start := 0; start < n; start++ {
				for _, count := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20, 50, n - 1, n} {
					check("log table", logs, start, count)
					check("NaN entries", withNaN, start, count)
					check("equal values", equal, start, count)
					// The maximum at each place of a short window; of a long
					// one, in its first and last groups and around the seam.
					for k := 0; k < count; k++ {
						if seam := n - start; count > 24 && k >= 12 && k < count-12 && (k < seam-6 || k >= seam+6) {
							continue
						}
						at := (start + k) % n
						was, wasNaN := logs[at], withNaN[at]
						logs[at], withNaN[at] = 1, 1
						check(fmt.Sprintf("maximum at +%d,", k), logs, start, count)
						check(fmt.Sprintf("NaN entries, maximum at +%d,", k), withNaN, start, count)
						logs[at], withNaN[at] = was, wasNaN
					}
				}
			}
		}
	})
}

// BenchmarkLogTable is one AP's share of synthWorkspace.logTables: a
// 360-bin unit-maximum spectrum into its padded log table.
func BenchmarkLogTable(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	s := NewSpectrum(DefaultBins)
	for i := range s.P {
		s.P[i] = rng.Float64()
	}
	tab := make([]float64, DefaultBins+1)
	benchBothKernelSets(b, func() { tab = s.PaddedLogValues(tab, 1e-6) })
}

var windowMaxSink float64

// BenchmarkWindowMax is one bound of the two-level screen at the two
// shipped window shapes: a superblock's ≈ 50 bins and a block's ≈ 6
// (two overlapping groups of four), every start in turn, wraps included.
func BenchmarkWindowMax(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tab := make([]float64, DefaultBins)
	for i := range tab {
		tab[i] = math.Log(1e-6 + rng.Float64())
	}
	for _, shape := range []struct {
		name  string
		count int
	}{{"super50", 50}, {"block6", 6}} {
		b.Run(shape.name, func(b *testing.B) {
			start := 0
			benchBothKernelSets(b, func() {
				windowMaxSink = WindowMax(tab, start, shape.count)
				if start++; start == len(tab) {
					start = 0
				}
			})
		})
	}
}
