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

// TestMulIntoMatchesMul: each column of a·b is a times that column of
// b, as MulVecInto computes it.
func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 2+rng.Intn(6), 2+rng.Intn(6))
		b := randomMatrix(rng, a.Cols, 2+rng.Intn(6))
		got := a.Mul(b)
		if got.Rows != a.Rows || got.Cols != b.Cols {
			t.Fatalf("trial %d: Mul is %d×%d, want %d×%d", trial, got.Rows, got.Cols, a.Rows, b.Cols)
		}
		col := make([]complex128, a.Rows)
		for j := 0; j < b.Cols; j++ {
			a.MulVecInto(col, b.Col(j))
			for i, want := range col {
				if cmplx.Abs(got.At(i, j)-want) > 1e-12 {
					t.Fatalf("trial %d: element (%d, %d) is %v, want %v", trial, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

// TestHIntoMatchesH: H of a non-square matrix is its conjugate
// transpose, element by element.
func TestHIntoMatchesH(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 5, 3)
	got := a.H()
	if got.Rows != 3 || got.Cols != 5 {
		t.Fatalf("H is %d×%d, want 3×5", got.Rows, got.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if got.At(j, i) != cmplx.Conj(a.At(i, j)) {
				t.Fatalf("element (%d, %d) differs", j, i)
			}
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
