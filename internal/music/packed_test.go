package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/mat"
)

// packedTestSetup builds a noise subspace and full-row correlation from
// random coherent streams, the shapes the pipeline feeds the scans.
func packedTestSetup(t *testing.T, rng *rand.Rand, nAnt int) (*array.Array, *Workspace, Options) {
	t.Helper()
	a := array.NewLinear(geom.Pt(0, 0), 0, nAnt, lambda)
	opt := Options{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      10,
		ForwardBackward: true,
		Steering:        NewSteeringCache(),
	}
	return a, &Workspace{}, opt
}

func randomStreams(rng *rand.Rand, nAnt, nSamples int) [][]complex128 {
	streams := make([][]complex128, nAnt)
	for i := range streams {
		streams[i] = make([]complex128, nSamples)
		for j := range streams[i] {
			streams[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return streams
}

// scanTol is the lag-domain scans' stated bound against the
// sum-of-squares scans: 1e-9 of the spectrum's maximum.
const scanTol = 1e-9

// maxDeviation returns max|got−want| relative to want's maximum.
func maxDeviation(got, want *Spectrum) float64 {
	max, _ := want.Max()
	var worst float64
	for i := range want.P {
		if d := math.Abs(got.P[i]-want.P[i]) / max; d > worst {
			worst = d
		}
	}
	return worst
}

// tableRows feeds the closure oracles (MUSIC, Bartlett) the table's own
// rows, truncated to n elements, so oracle and table scan read the same
// steering values.
func tableRows(tab *SteeringTable, n int) func(theta float64) []complex128 {
	return func(theta float64) []complex128 {
		return tab.Vector(int(math.Round(theta / (2 * math.Pi) * float64(tab.Bins()))))[:n]
	}
}

func requireSameSpectrum(t *testing.T, what string, got, want *Spectrum) {
	t.Helper()
	for i := range want.P {
		if got.P[i] != want.P[i] {
			t.Fatalf("%s: bin %d differs: %v vs %v", what, i, got.P[i], want.P[i])
		}
	}
}

// TestPackedScansMatchClosurePaths pins the table scans against the
// closure oracles (MUSIC / Bartlett over Vector views) on random
// subspaces. The sum-of-squares reference kernels are bit-identical to
// the closures; the production scans take the lag form on these linear
// tables, so their output — and only their output — is held to scanTol
// instead. A reused workspace and a fresh one (nil) give bit-identical
// runs of one kernel either way.
func TestPackedScansMatchClosurePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		nAnt := 4 + rng.Intn(5)
		a, ws, opt := packedTestSetup(t, rng, nAnt)
		streams := randomStreams(rng, nAnt, 16)
		snaps := SnapshotsAt(streams, 0, 10)
		r, err := CorrelationMatrix(snaps)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := SpatialSmooth(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		noise, _, _, err := Subspaces(rs, 0.05, rs.Rows/2)
		if err != nil {
			t.Fatal(err)
		}
		tab := opt.Steering.Table(a, lambda, DefaultBins)

		want := MUSIC(noise, tableRows(tab, noise.Rows), tab.Bins())
		requireSameSpectrum(t, "MUSIC ref (ws)", MUSICWithTableRefWS(ws, noise, tab), want)
		requireSameSpectrum(t, "MUSIC ref (fresh ws)", MUSICWithTableRefWS(nil, noise, tab), want)
		got := MUSICWithTableWS(ws, noise, tab)
		if d := maxDeviation(got, want); d > scanTol {
			t.Fatalf("trial %d: lag MUSIC deviates %g from the closure scan", trial, d)
		}
		requireSameSpectrum(t, "MUSIC ws vs fresh", MUSICWithTableWS(nil, noise, tab), got)

		// Bartlett on the full-row matrix.
		wantB := Bartlett(r, tableRows(tab, r.Cols), tab.Bins())
		requireSameSpectrum(t, "Bartlett ref (ws)", BartlettWithTableRefWS(ws, r, tab), wantB)
		requireSameSpectrum(t, "Bartlett ref (fresh ws)", BartlettWithTableRefWS(nil, r, tab), wantB)
		gotB := BartlettWithTableWS(ws, r, tab)
		if d := maxDeviation(gotB, wantB); d > scanTol {
			t.Fatalf("trial %d: lag Bartlett deviates %g from the closure scan", trial, d)
		}
		requireSameSpectrum(t, "Bartlett ws vs fresh", BartlettWithTableWS(nil, r, tab), gotB)
	}
}

// randomNoiseSubspace returns rows×cols orthonormal columns
// (Gram–Schmidt over random complex vectors).
func randomNoiseSubspace(rng *rand.Rand, rows, cols int) *mat.Matrix {
	en := mat.New(rows, cols)
	for k := 0; k < cols; k++ {
		v := make([]complex128, rows)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for j := 0; j < k; j++ {
			var dot complex128
			for i := range v {
				dot += cmplx.Conj(en.At(i, j)) * v[i]
			}
			for i := range v {
				v[i] -= dot * en.At(i, j)
			}
		}
		var norm float64
		for _, x := range v {
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		norm = math.Sqrt(norm)
		for i, x := range v {
			en.Set(i, k, x/complex(norm, 0))
		}
	}
	return en
}

// randomHermitian returns B·Bᴴ for a random m×m B: Hermitian and
// positive semi-definite, like a correlation matrix.
func randomHermitian(rng *rand.Rand, m int) *mat.Matrix {
	r := mat.New(m, m)
	for t := 0; t < m; t++ {
		x := make([]complex128, m)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		r.OuterAccumulate(x, 1/float64(m))
	}
	return r
}

// TestLagScansMatchSumOfSquares is the lag-domain scans' property test:
// over random orthonormal noise subspaces and random Hermitian R, row
// sizes 4..8, smoothing groups 1..3, on-grid and off-grid array
// orientations, with and without the ninth antenna, both scans stay
// within scanTol of the sum-of-squares kernels on the same table.
func TestLagScansMatchSumOfSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ws := &Workspace{}
	var worstM, worstB float64
	for _, orient := range []float64{0, math.Pi / 2, 0.3} {
		for n := 4; n <= 8; n++ {
			for _, ninth := range []bool{false, true} {
				a := array.NewLinear(geom.Pt(1, 2), orient, n, lambda)
				a.NinthAntenna = ninth
				tab := NewSteeringTable(a, lambda, DefaultBins)
				for ng := 1; ng <= 3; ng++ {
					rows := n - ng + 1
					for cols := 1; cols < rows; cols++ {
						en := randomNoiseSubspace(rng, rows, cols)
						want := MUSICWithTableRefWS(ws, en, tab).Clone()
						d := maxDeviation(MUSICWithTableWS(ws, en, tab), want)
						if d > scanTol {
							t.Fatalf("orient %g n=%d ninth=%v ng=%d cols=%d: MUSIC deviates %g", orient, n, ninth, ng, cols, d)
						}
						worstM = math.Max(worstM, d)
					}
				}
				// Bartlett: the row alone, and the row plus the ninth
				// antenna when the array has one.
				sizes := []int{n}
				if ninth {
					sizes = append(sizes, n+1)
				}
				for _, m := range sizes {
					r := randomHermitian(rng, m)
					want := BartlettWithTableRefWS(ws, r, tab).Clone()
					d := maxDeviation(BartlettWithTableWS(ws, r, tab), want)
					if d > scanTol {
						t.Fatalf("orient %g n=%d m=%d: Bartlett deviates %g", orient, n, m, d)
					}
					worstB = math.Max(worstB, d)
				}
			}
		}
	}
	t.Logf("worst deviation of unit max: MUSIC %.3g, Bartlett %.3g", worstM, worstB)
}

// TestLagBartlettNonHermitianInput: the Bartlett scan wants Re aᴴRa,
// which the generic kernel computes for any R; the lag fold must agree
// on a matrix that is not Hermitian, not silently read one triangle.
func TestLagBartlettNonHermitianInput(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := array.NewLinear(geom.Pt(0, 0), 0.3, 8, lambda)
	a.NinthAntenna = true
	tab := NewSteeringTable(a, lambda, DefaultBins)
	r := mat.New(9, 9)
	for i := range r.Data {
		r.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := 0; i < 9; i++ { // keep the form positive enough to escape the zero clamp
		r.Data[i*9+i] += 40
	}
	want := BartlettWithTableRefWS(nil, r, tab)
	if d := maxDeviation(BartlettWithTableWS(nil, r, tab), want); d > scanTol {
		t.Fatalf("lag Bartlett deviates %g on a non-Hermitian R", d)
	}
}

// TestLagMUSICGuardFallback drives the denominator to zero: a noiseless
// single source on a bin centre makes the steering vector orthogonal to
// the exact noise subspace, where the lag sum cancels completely. The
// guard must hand those bins to the sum-of-squares kernel, and the peak
// bin and every normalized value must then match the reference scan.
func TestLagMUSICGuardFallback(t *testing.T) {
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	tab := NewSteeringTable(a, lambda, DefaultBins)
	const srcBin = 65
	// The noise subspace of a·aᴴ is the orthogonal complement of a.
	src := tab.Vector(srcBin)
	r := mat.New(8, 8)
	r.OuterAccumulate(src, 1)
	noise, _, d, err := Subspaces(r, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("found %d signals in a rank-one matrix", d)
	}
	ws := &Workspace{}
	want := MUSICWithTableRefWS(ws, noise, tab).Clone()
	before := ws.GuardFallbacks()
	got := MUSICWithTableWS(ws, noise, tab)
	fired := ws.GuardFallbacks() - before
	if fired == 0 {
		t.Fatal("guard never fired although the denominator reaches zero at the source bin")
	}
	_, wantBin := want.Max()
	_, gotBin := got.Max()
	// A linear row cannot tell the source from its mirror image.
	if gotBin != wantBin || (wantBin != srcBin && wantBin != DefaultBins-srcBin) {
		t.Fatalf("peak at bin %d, reference %d, source %d", gotBin, wantBin, srcBin)
	}
	if got.P[gotBin] != want.P[wantBin] {
		t.Fatalf("normalized peak %v, reference %v", got.P[gotBin], want.P[wantBin])
	}
	if dev := maxDeviation(got, want); dev > scanTol {
		t.Fatalf("spectrum deviates %g from the reference", dev)
	}
	t.Logf("guard fired on %d of %d bins", fired, DefaultBins)
}

// TestCircularTableTakesGenericKernel: a circular array has no uniform
// row, so the production scans must run the sum-of-squares / generic
// kernels on its table, bit-identical to the closure oracles.
func TestCircularTableTakesGenericKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := array.NewCircular(geom.Pt(5, 5), 0.08, 8)
	tab := NewSteeringTable(a, lambda, 180)
	en := randomNoiseSubspace(rng, 8, 5)
	requireSameSpectrum(t, "circular MUSIC", MUSICWithTableWS(nil, en, tab),
		MUSIC(en, tableRows(tab, 8), tab.Bins()))
	r := randomHermitian(rng, 8)
	requireSameSpectrum(t, "circular Bartlett", BartlettWithTableWS(nil, r, tab),
		Bartlett(r, tableRows(tab, 8), tab.Bins()))
}

func BenchmarkMUSICWithTableWS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := randomStreams(rng, 8, 16)
	snaps := SnapshotsAt(streams, 0, 10)
	r, _ := CorrelationMatrix(snaps)
	rs, _ := SpatialSmooth(r, 2)
	noise, _, _, _ := Subspaces(rs, 0.05, rs.Rows/2)
	cache := NewSteeringCache()
	tab := cache.Table(a, lambda, DefaultBins)
	ws := &Workspace{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MUSICWithTableWS(ws, noise, tab)
	}
}

// BenchmarkMUSICWithTableClosure is the pre-packing scan, kept for the
// kernels experiment's before/after trajectory.
func BenchmarkMUSICWithTableClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := randomStreams(rng, 8, 16)
	snaps := SnapshotsAt(streams, 0, 10)
	r, _ := CorrelationMatrix(snaps)
	rs, _ := SpatialSmooth(r, 2)
	noise, _, _, _ := Subspaces(rs, 0.05, rs.Rows/2)
	cache := NewSteeringCache()
	tab := cache.Table(a, lambda, DefaultBins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MUSIC(noise, tableRows(tab, noise.Rows), tab.Bins())
	}
}
