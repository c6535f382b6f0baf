package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSymmetric returns a random symmetric n×n matrix of the given rank
// (rank n is a general symmetric matrix; below it the matrix is PSD with
// a repeated zero eigenvalue), row-major.
func randSymmetric(rng *rand.Rand, n, rank int) []float64 {
	a := make([]float64, n*n)
	if rank >= n {
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a[i*n+j], a[j*n+i] = v, v
			}
		}
		return a
	}
	for s := 0; s < rank; s++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		w := 0.1 + rng.Float64()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] += w * v[i] * v[j]
			}
		}
	}
	return a
}

// checkSymmetricEig verifies a decomposition of a against its
// definition: ascending values, orthonormal rows, A·v = λ·v, and
// agreement with the Hermitian solver's eigenvalues.
func checkSymmetricEig(t *testing.T, name string, a []float64, n int) {
	t.Helper()
	var ws, wsH EigWorkspace
	z := append([]float64(nil), a...)
	vals, err := EigSymmetricWS(z, n, &ws)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var norm float64
	for _, v := range a {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	tol := 1e-13 * math.Max(norm, 1e-300)
	for j := 1; j < n; j++ {
		if vals[j] < vals[j-1] {
			t.Fatalf("%s: eigenvalues not ascending: %v", name, vals)
		}
	}
	for j := 0; j < n; j++ {
		vj := z[j*n : j*n+n]
		for k := 0; k <= j; k++ {
			var dot float64
			for c, v := range z[k*n : k*n+n] {
				dot += v * vj[c]
			}
			want := 0.0
			if k == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-13 {
				t.Fatalf("%s: eigenvectors %d and %d: inner product %g, want %g", name, k, j, dot, want)
			}
		}
		for i := 0; i < n; i++ {
			var av float64
			for c, v := range vj {
				av += a[i*n+c] * v
			}
			if d := math.Abs(av - vals[j]*vj[i]); d > tol {
				t.Fatalf("%s: (A·v − λ·v)[%d] = %g for eigenpair %d, tolerance %g", name, i, d, j, tol)
			}
		}
	}
	h := New(n, n)
	for i, v := range a {
		h.Data[i] = complex(v, 0)
	}
	ref, err := EigHermitianWS(h, &wsH)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for j, v := range vals {
		if d := math.Abs(v - ref.Values[j]); d > tol {
			t.Fatalf("%s: eigenvalue %d is %g, the Hermitian solver's %g (%g apart, tolerance %g)", name, j, v, ref.Values[j], d, tol)
		}
	}
}

// TestEigSymmetricMatchesDefinition runs the real solver over every
// order the array sizes produce, on general, rank-deficient, diagonal
// and degenerate inputs.
func TestEigSymmetricMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 16; n++ {
		for trial := 0; trial < 20; trial++ {
			checkSymmetricEig(t, "general", randSymmetric(rng, n, n), n)
			checkSymmetricEig(t, "rank-deficient", randSymmetric(rng, n, 1+rng.Intn(n)), n)
		}
		zero := make([]float64, n*n)
		checkSymmetricEig(t, "zero", zero, n)
		eye, diag := make([]float64, n*n), make([]float64, n*n)
		for i := 0; i < n; i++ {
			eye[i*n+i] = 1
			diag[i*n+i] = float64((i*7)%n) - 2
		}
		checkSymmetricEig(t, "identity", eye, n)
		checkSymmetricEig(t, "diagonal", diag, n)
	}
	// Magnitudes far from one: the reduction scales each reflection.
	for _, s := range []float64{1e-150, 1e150} {
		a := randSymmetric(rng, 7, 7)
		for i := range a {
			a[i] *= s
		}
		checkSymmetricEig(t, "scaled", a, 7)
	}
}

// TestEigSymmetricReadsUpperTriangle: garbage below the diagonal does
// not reach the result.
func TestEigSymmetricReadsUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 7
	a := randSymmetric(rng, n, n)
	b := append([]float64(nil), a...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b[j*n+i] = math.NaN()
		}
	}
	var wsA, wsB EigWorkspace
	va, err := EigSymmetricWS(a, n, &wsA)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := EigSymmetricWS(b, n, &wsB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("eigenvalue %d: %g with a clean lower triangle, %g with NaNs there", i, va[i], vb[i])
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eigenvector element %d differs", i)
		}
	}
}

// TestEigSymmetricTerminatesOnNonFinite: NaN and Inf entries end in an
// error or a (meaningless) result, never a hang or a panic, and a wrong
// shape is refused.
func TestEigSymmetricTerminatesOnNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var ws EigWorkspace
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 49; pos++ {
			a := randSymmetric(rng, 7, 7)
			a[pos] = bad
			a[(pos%7)*7+pos/7] = bad
			_, _ = EigSymmetricWS(a, 7, &ws) // must return
		}
	}
	if _, err := EigSymmetricWS(make([]float64, 8), 3, &ws); err == nil {
		t.Error("expected an error for a 3×3 request over 8 elements")
	}
}

func TestEigSymmetricSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src := randSymmetric(rng, 7, 7)
	a := make([]float64, len(src))
	var ws EigWorkspace
	if n := testing.AllocsPerRun(50, func() {
		copy(a, src)
		if _, err := EigSymmetricWS(a, 7, &ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocs per decomposition with a warm workspace, want 0", n)
	}
}

// BenchmarkEigSymmetricWS7 is the real solver at the order the serving
// path decomposes (8-antenna row, two smoothing groups), beside
// BenchmarkEigHermitianWS7 on the same matrix embedded as complex.
func BenchmarkEigSymmetricWS7(b *testing.B) {
	src := randSymmetric(rand.New(rand.NewSource(1)), 7, 3)
	a := make([]float64, len(src))
	var ws EigWorkspace
	solve := func() {
		copy(a, src)
		if _, err := EigSymmetricWS(a, 7, &ws); err != nil {
			b.Fatal(err)
		}
	}
	solve() // size the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(10, solve); n != 0 {
		b.Fatalf("%v allocs/op, want 0", n)
	}
}

func BenchmarkEigHermitianWS7(b *testing.B) {
	src := randSymmetric(rand.New(rand.NewSource(1)), 7, 3)
	a := New(7, 7)
	for i, v := range src {
		a.Data[i] = complex(v, 0)
	}
	var ws EigWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigHermitianWS(a, &ws); err != nil {
			b.Fatal(err)
		}
	}
}
