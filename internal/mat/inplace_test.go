package mat

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randomHermitian(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 2+rng.Intn(6), 2+rng.Intn(6))
		b := randomMatrix(rng, a.Cols, 2+rng.Intn(6))
		want := a.Mul(b)
		dst := New(a.Rows, b.Cols)
		// Pre-pollute dst to prove it is fully overwritten.
		for i := range dst.Data {
			dst.Data[i] = complex(99, -99)
		}
		got := MulInto(dst, a, b)
		if got != dst {
			t.Fatal("MulInto must return dst")
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: element %d differs: %v vs %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestHIntoMatchesH(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 5, 3)
	want := a.H()
	got := HInto(New(3, 5), a)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestReuseMatrix(t *testing.T) {
	m := ReuseMatrix(nil, 4, 4)
	if m.Rows != 4 || m.Cols != 4 {
		t.Fatalf("got %d×%d", m.Rows, m.Cols)
	}
	backing := &m.Data[0]
	m2 := ReuseMatrix(m, 3, 3)
	if m2 != m || &m2.Data[0] != backing {
		t.Fatal("shrinking must reuse the backing array")
	}
	m3 := ReuseMatrix(m, 8, 8)
	if m3.Rows != 8 || len(m3.Data) != 64 {
		t.Fatal("growth must resize")
	}
}

func TestIdentityInto(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(3)), 4, 4)
	IdentityInto(m)
	if !m.Equalish(Identity(4), 0) {
		t.Fatal("IdentityInto not the identity")
	}
}

// TestEigWSBitIdentical is the core zero-alloc guarantee: the
// workspace path must produce bit-for-bit the same eigendecomposition
// as the allocating path, across repeated reuse and varying sizes.
func TestEigWSBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws EigWorkspace
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		a := randomHermitian(rng, n)
		want, err := EigHermitianWS(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EigHermitianWS(a, &ws)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("trial %d: eigenvalue %d differs: %v vs %v", trial, i, got.Values[i], want.Values[i])
			}
		}
		for i := range want.Vectors.Data {
			if got.Vectors.Data[i] != want.Vectors.Data[i] {
				t.Fatalf("trial %d: eigenvector element %d differs", trial, i)
			}
		}
	}
}

func TestEigWSZeroMatrix(t *testing.T) {
	var ws EigWorkspace
	e, err := EigHermitianWS(New(3, 3), &ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatal("zero matrix must have zero eigenvalues")
		}
	}
	if !e.Vectors.Equalish(Identity(3), 0) {
		t.Fatal("zero matrix must have identity eigenvectors")
	}
}

func TestEigWSZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomHermitian(rng, 8)
	var ws EigWorkspace
	// Warm the workspace.
	if _, err := EigHermitianWS(a, &ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := EigHermitianWS(a, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EigHermitianWS allocated %.1f/op in steady state, want 0", allocs)
	}
}
