package mat

import (
	"math/rand"
	"testing"
)

// TestEigPackedMatchesRef checks the Jacobi solver's eigendecomposition
// invariants (A·V = V·Λ within 1e-12·‖A‖, VᴴV = I, ascending Λ) over
// random Hermitian matrices of every order from 1 to 16, with one
// workspace reused across orders.
func TestEigPackedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws EigWorkspace
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%16
		a := randomHermitian(rng, n)
		e, err := EigHermitianWS(a, &ws)
		if err != nil {
			t.Fatal(err)
		}
		checkEig(t, a, e, 1e-12)
	}
}

// TestEigPackedCorrelationShapes runs the same checks on PSD
// correlation-like matrices (rank-deficient, repeated eigenvalues),
// where pivot skips and zero rotations are common.
func TestEigPackedCorrelationShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ws EigWorkspace
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(15)
		rank := 1 + rng.Intn(n)
		a := New(n, n)
		for s := 0; s < rank; s++ {
			v := make([]complex128, n)
			for i := range v {
				v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			a.OuterAccumulate(v, rng.Float64())
		}
		e, err := EigHermitianWS(a, &ws)
		if err != nil {
			t.Fatal(err)
		}
		checkEig(t, a, e, 1e-12)
	}
}

// TestEigPackedRejectsNonHermitian checks the workspace entry point's
// input gates.
func TestEigPackedRejectsNonHermitian(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	var ws EigWorkspace
	if _, err := EigHermitianWS(a, &ws); err == nil {
		t.Error("expected ErrNotHermitian")
	}
	b := New(2, 3)
	if _, err := EigHermitianWS(b, &ws); err == nil {
		t.Error("expected error for non-square")
	}
}

func BenchmarkEigHermitianWS8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randHermitian(8, r)
	var ws EigWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigHermitianWS(a, &ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigHermitianWS16(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randHermitian(16, r)
	var ws EigWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigHermitianWS(a, &ws); err != nil {
			b.Fatal(err)
		}
	}
}
