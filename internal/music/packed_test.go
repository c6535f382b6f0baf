package music

import (
	"fmt"
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
		Steering:        NewSteeringCache(0),
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
	underBothKernelSets(t, testPackedScansMatchClosurePaths)
}

func testPackedScansMatchClosurePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		nAnt := 4 + rng.Intn(5)
		a, ws, opt := packedTestSetup(t, rng, nAnt)
		streams := randomStreams(rng, nAnt, 16)
		snaps := SnapshotsAt(streams, 0, 10)
		r, err := CorrelationMatrixWS(nil, snaps)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := SpatialSmoothWS(nil, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		noise, _, _, err := SubspacesWS(nil, rs, 0.05, rs.Rows/2)
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
	underBothKernelSets(t, testLagScansMatchSumOfSquares)
}

func testLagScansMatchSumOfSquares(t *testing.T) {
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
	noise, _, d, err := SubspacesWS(nil, r, 0.05, 4)
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
	underBothKernelSets(t, testCircularTableTakesGenericKernel)
}

func testCircularTableTakesGenericKernel(t *testing.T) {
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

// rowMajorMUSIC and rowMajorBartlett are the lag scans as they ran
// before the table went lag-major: bin by bin over the bin's own
// steering row, one add chain per bin. They re-read the folded
// coefficients the production scan just left in ws (the folds did not
// change; TestLagScansMatchSumOfSquares holds them to the generic
// kernels), so they pin exactly what the streaming rewrite touches: the
// order of every bin's additions, the guard, the clamps, the maximum.
func rowMajorMUSIC(ws *Workspace, en *mat.Matrix, tab *SteeringTable) (*Spectrum, uint64) {
	rows, cols := en.Rows, en.Cols
	s, c0 := NewSpectrum(tab.bins), ws.lagRe[0]/2
	are, aim := make([]float64, rows), make([]float64, rows)
	var fallbacks uint64
	for i := range s.P {
		for k, v := range tab.Vector(i)[:rows] {
			are[k], aim[k] = real(v), imag(v)
		}
		denom := c0
		for d := 1; d < rows; d++ {
			denom += ws.lagRe[d]*are[d] - ws.lagIm[d]*aim[d]
		}
		if denom < musicLagGuard*c0 {
			denom = noiseProjection(ws.enRe, ws.enIm, rows, cols, are, aim)
			fallbacks++
		}
		s.P[i] = 1 / math.Max(denom, 1e-12)
	}
	return s.Normalize(), fallbacks
}

func rowMajorBartlett(ws *Workspace, r *mat.Matrix, tab *SteeringTable) *Spectrum {
	m, row := r.Rows, min(r.Rows, tab.row)
	s := NewSpectrum(tab.bins)
	for i := range s.P {
		a := tab.Vector(i)
		v := ws.lagRe[0]
		for d := 1; d < row; d++ {
			v += ws.lagRe[d]*real(a[d]) - ws.lagIm[d]*imag(a[d])
		}
		if m > row {
			var sre, sim float64
			for q := 0; q < row; q++ {
				sre += ws.raRe[q]*real(a[q]) - ws.raIm[q]*imag(a[q])
				sim += ws.raRe[q]*imag(a[q]) + ws.raIm[q]*real(a[q])
			}
			er, ei := real(a[row]), imag(a[row])
			v += er*sre + ei*sim + real(r.Data[row*m+row])*(er*er+ei*ei)
		}
		s.P[i] = math.Max(v, 0)
	}
	return s
}

// TestLagScansBitIdenticalToRowMajor: streaming the lag-major planes
// with the bin index innermost gives every bin the additions it had, in
// the order it had them, so both production scans == the row-major
// loops on every bin — over orientations on and off the bin lattice,
// 2..8 rows, every noise-column count, bin counts that are and are not
// multiples of anything, R with and without the ninth element, R that
// is not Hermitian, and the subspace that drives the guard to fire.
func TestLagScansBitIdenticalToRowMajor(t *testing.T) {
	underBothKernelSets(t, testLagScansBitIdenticalToRowMajor)
}

func testLagScansBitIdenticalToRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	ws := &Workspace{}
	checkMUSIC := func(what string, en *mat.Matrix, tab *SteeringTable) uint64 {
		t.Helper()
		before := ws.GuardFallbacks()
		got := MUSICWithTableWS(ws, en, tab)
		fired := ws.GuardFallbacks() - before
		want, wantFired := rowMajorMUSIC(ws, en, tab)
		requireSameSpectrum(t, what, got, want)
		if fired != wantFired {
			t.Fatalf("%s: guard fired on %d bins, row-major on %d", what, fired, wantFired)
		}
		ws.Recycle(got)
		return fired
	}
	checkBartlett := func(what string, r *mat.Matrix, tab *SteeringTable) {
		t.Helper()
		got := BartlettWithTableWS(ws, r, tab)
		requireSameSpectrum(t, what, got, rowMajorBartlett(ws, r, tab))
		ws.Recycle(got)
	}
	orients := []float64{0, math.Pi / 2, math.Pi, 0.3, rng.Float64() * 2 * math.Pi, -rng.Float64()}
	for _, bins := range []int{90, 360, 720, 361} {
		for _, orient := range orients {
			for n := 2; n <= 8; n++ {
				a := array.NewLinear(geom.Pt(3, 1), orient, n, lambda)
				a.NinthAntenna = true
				tab := NewSteeringTable(a, lambda, bins)
				for rows := 2; rows <= n; rows++ {
					for cols := 1; cols < rows; cols++ {
						checkMUSIC(fmt.Sprintf("MUSIC bins=%d orient=%g n=%d rows=%d cols=%d", bins, orient, n, rows, cols),
							randomNoiseSubspace(rng, rows, cols), tab)
					}
				}
				// The row alone (and a leading part of it), then the row
				// plus the ninth antenna, Hermitian and not.
				for _, m := range []int{n - 1, n, n + 1} {
					if m < 1 {
						continue
					}
					what := fmt.Sprintf("Bartlett bins=%d orient=%g n=%d m=%d", bins, orient, n, m)
					checkBartlett(what, randomHermitian(rng, m), tab)
					r := mat.New(m, m)
					for i := range r.Data {
						r.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
					checkBartlett(what+" non-Hermitian", r, tab)
				}
			}
		}
	}

	// TestLagMUSICGuardFallback's subspace: the guard fires, on the same
	// bins, and the recomputed denominators are the same.
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	tab := NewSteeringTable(a, lambda, DefaultBins)
	r := mat.New(8, 8)
	r.OuterAccumulate(tab.Vector(65), 1)
	noise, _, _, err := SubspacesWS(nil, r, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fired := checkMUSIC("guard subspace", noise, tab); fired == 0 {
		t.Fatal("the adversarial subspace no longer fires the guard")
	}
}

// benchNoAllocs fails a kernel benchmark that allocated: it would be
// timing mallocgc, not the kernel.
func benchNoAllocs(b *testing.B, scan func()) {
	b.Helper()
	scan() // warm the workspace
	if a := testing.AllocsPerRun(10, scan); a != 0 {
		b.Fatalf("%v allocations per scan, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}

// BenchmarkMUSICWithTableWS is the shipped §2.3 scan: 7 smoothed rows
// against the 8-element row's table, the spectrum recycled as
// Pipeline.ProcessAPs does.
func BenchmarkMUSICWithTableWS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := randomStreams(rng, 8, 16)
	snaps := SnapshotsAt(streams, 0, 10)
	r, _ := CorrelationMatrixWS(nil, snaps)
	rs, _ := SpatialSmoothWS(nil, r, 2)
	noise, _, _, _ := SubspacesWS(nil, rs, 0.05, rs.Rows/2)
	tab := NewSteeringCache(0).Table(a, lambda, DefaultBins)
	ws := &Workspace{}
	benchBothKernelSets(b, func() { ws.Recycle(MUSICWithTableWS(ws, noise, tab)) })
}

// BenchmarkBartlettVoteWS is the §2.3.4 vote's scan: the full 9 × 9
// correlation against the ninth-antenna table.
func BenchmarkBartlettVoteWS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	a.NinthAntenna = true
	r, _ := CorrelationMatrixWS(nil, SnapshotsAt(randomStreams(rng, 9, 16), 0, 10))
	tab := NewSteeringCache(0).Table(a, lambda, DefaultBins)
	ws := &Workspace{}
	benchBothKernelSets(b, func() { ws.Recycle(BartlettWithTableWS(ws, r, tab)) })
}

// BenchmarkMUSICWithTableClosure is the pre-packing scan, kept for the
// kernels experiment's before/after trajectory.
func BenchmarkMUSICWithTableClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	streams := randomStreams(rng, 8, 16)
	snaps := SnapshotsAt(streams, 0, 10)
	r, _ := CorrelationMatrixWS(nil, snaps)
	rs, _ := SpatialSmoothWS(nil, r, 2)
	noise, _, _, _ := SubspacesWS(nil, rs, 0.05, rs.Rows/2)
	cache := NewSteeringCache(0)
	tab := cache.Table(a, lambda, DefaultBins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MUSIC(noise, tableRows(tab, noise.Rows), tab.Bins())
	}
}
