package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New shape wrong: %+v", m)
	}
	m.Set(1, 2, 3+4i)
	if m.At(1, 2) != 3+4i {
		t.Errorf("At = %v", m.At(1, 2))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,1) did not panic")
		}
	}()
	New(0, 1)
}

// fromRows builds a matrix from a slice of equal-length rows.
func fromRows(rows [][]complex128) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

func TestFromRowsAndClone(t *testing.T) {
	m := fromRows([][]complex128{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases original")
	}
	if !m.Equalish(fromRows([][]complex128{{1, 2}, {3, 4}}), 0) {
		t.Error("Equalish false negative")
	}
}

func TestAddSubScale(t *testing.T) {
	a := fromRows([][]complex128{{1, 2i}, {3, 4}})
	b := fromRows([][]complex128{{1, 1}, {1, 1}})
	if got := a.Add(b).At(0, 1); got != 1+2i {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b).At(1, 0); got != 2 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2i).At(0, 0); got != 2i {
		t.Errorf("Scale = %v", got)
	}
}

func TestMulIdentity(t *testing.T) {
	a := fromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 2i}})
	if !a.Mul(Identity(2)).Equalish(a, 1e-15) {
		t.Error("A·I ≠ A")
	}
	if !Identity(2).Mul(a).Equalish(a, 1e-15) {
		t.Error("I·A ≠ A")
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]complex128{{1, 2}, {3, 4}})
	b := fromRows([][]complex128{{5, 6}, {7, 8}})
	want := fromRows([][]complex128{{19, 22}, {43, 50}})
	if !a.Mul(b).Equalish(want, 1e-15) {
		t.Errorf("Mul = %v", a.Mul(b))
	}
}

func TestHermitianTranspose(t *testing.T) {
	a := fromRows([][]complex128{{1 + 1i, 2 - 3i}, {4, 5i}})
	h := a.H()
	if h.At(0, 0) != 1-1i || h.At(1, 0) != 2+3i || h.At(0, 1) != 4 || h.At(1, 1) != -5i {
		t.Errorf("H = %v", h)
	}
	if !a.H().H().Equalish(a, 0) {
		t.Error("(Aᴴ)ᴴ ≠ A")
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]complex128{{1, 2}, {3, 4}})
	dst := []complex128{99, 99}
	got := a.MulVecInto(dst, []complex128{1, 1i})
	if &got[0] != &dst[0] {
		t.Fatal("MulVecInto must return dst")
	}
	if got[0] != 1+2i || got[1] != 3+4i {
		t.Errorf("MulVecInto = %v", got)
	}
}

// TestSubmatrix: Col copies one column out, the one block of a matrix
// the package extracts.
func TestSubmatrix(t *testing.T) {
	a := fromRows([][]complex128{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	col := a.Col(1)
	if len(col) != 3 || col[0] != 2 || col[1] != 5 || col[2] != 8 {
		t.Errorf("Col(1) = %v", col)
	}
	col[0] = 99
	if a.At(0, 1) != 2 {
		t.Error("Col aliases the matrix")
	}
}

func TestOuterAccumulate(t *testing.T) {
	m := New(2, 2)
	v := []complex128{1, 1i}
	m.OuterAccumulate(v, 0.5)
	// v·vᴴ = [[1, -i],[i, 1]], halved.
	want := fromRows([][]complex128{{0.5, -0.5i}, {0.5i, 0.5}})
	if !m.Equalish(want, 1e-15) {
		t.Errorf("OuterAccumulate = %v", m)
	}
	if !m.IsHermitian(1e-15) {
		t.Error("outer product should be Hermitian")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := fromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v", got)
	}
}

func randHermitian(n int, r *rand.Rand) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(r.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(r.NormFloat64(), r.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestEigHermitianKnown2x2(t *testing.T) {
	// [[2, i], [-i, 2]] has eigenvalues 1 and 3.
	a := fromRows([][]complex128{{2, 1i}, {-1i, 2}})
	e, err := EigHermitianWS(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-1) > 1e-12 || math.Abs(e.Values[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [1 3]", e.Values)
	}
	checkEig(t, a, e, 1e-12)
}

func TestEigHermitianDiagonal(t *testing.T) {
	a := fromRows([][]complex128{{5, 0}, {0, -2}})
	e, err := EigHermitianWS(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]+2) > 1e-14 || math.Abs(e.Values[1]-5) > 1e-14 {
		t.Errorf("eigenvalues = %v, want [-2 5]", e.Values)
	}
}

func TestEigHermitianZero(t *testing.T) {
	a := New(3, 3)
	e, err := EigHermitianWS(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Errorf("zero matrix eigenvalue = %v", v)
		}
	}
}

func TestEigHermitianRejectsNonHermitian(t *testing.T) {
	a := fromRows([][]complex128{{1, 2}, {3, 4}})
	if _, err := EigHermitianWS(a, nil); err == nil {
		t.Error("expected ErrNotHermitian")
	}
	b := New(2, 3)
	if _, err := EigHermitianWS(b, nil); err == nil {
		t.Error("expected error for non-square")
	}
}

// checkEig verifies the three eigendecomposition invariants:
// A·V = V·Λ within tol·‖A‖, VᴴV = I, and ascending eigenvalue order.
func checkEig(t *testing.T, a *Matrix, e Eig, tol float64) {
	t.Helper()
	n := a.Rows
	// Residual per eigenpair.
	for k := 0; k < n; k++ {
		v := e.Vectors.Col(k)
		av := a.MulVecInto(make([]complex128, n), v)
		var resid float64
		for i := range av {
			d := av[i] - complex(e.Values[k], 0)*v[i]
			resid += real(d)*real(d) + imag(d)*imag(d)
		}
		if math.Sqrt(resid) > tol*a.FrobeniusNorm() {
			t.Errorf("eigenpair %d residual %g too large", k, math.Sqrt(resid))
		}
	}
	// Orthonormality.
	vhv := e.Vectors.H().Mul(e.Vectors)
	if !vhv.Equalish(Identity(n), 1e-10) {
		t.Error("VᴴV ≠ I")
	}
	// Ordering.
	for k := 1; k < n; k++ {
		if e.Values[k] < e.Values[k-1]-1e-12 {
			t.Errorf("eigenvalues not ascending: %v", e.Values)
		}
	}
}

func TestEigHermitianRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(15) // up to 16×16, the two-WARP maximum
		a := randHermitian(n, r)
		e, err := EigHermitianWS(a, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkEig(t, a, e, 1e-10)
		// Trace equals the eigenvalue sum.
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += real(a.At(i, i))
			sum += e.Values[i]
		}
		if math.Abs(tr-sum) > 1e-8*math.Max(1, math.Abs(tr)) {
			t.Errorf("trial %d: trace %g ≠ eigenvalue sum %g", trial, tr, sum)
		}
	}
}

func TestEigHermitianPSDRankOne(t *testing.T) {
	// A rank-one correlation-like matrix v·vᴴ must have one positive
	// eigenvalue equal to ‖v‖² and the rest zero.
	v := []complex128{1, 2i, -1 + 1i, 0.5}
	a := New(4, 4)
	a.OuterAccumulate(v, 1)
	e, err := EigHermitianWS(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	norm2 := VecNorm(v) * VecNorm(v)
	if math.Abs(e.Values[3]-norm2) > 1e-10 {
		t.Errorf("top eigenvalue = %v, want %v", e.Values[3], norm2)
	}
	for k := 0; k < 3; k++ {
		if math.Abs(e.Values[k]) > 1e-10 {
			t.Errorf("eigenvalue %d = %v, want 0", k, e.Values[k])
		}
	}
}

func TestVecDotNorm(t *testing.T) {
	a := []complex128{1, 1i}
	b := []complex128{1i, 1}
	// ⟨a,b⟩ = conj(1)·i + conj(i)·1 = i − i = 0.
	if got := VecDot(a, b); cmplx.Abs(got) > 1e-15 {
		t.Errorf("VecDot = %v", got)
	}
	if got := VecNorm(a); math.Abs(got-math.Sqrt2) > 1e-15 {
		t.Errorf("VecNorm = %v", got)
	}
}

func BenchmarkEigHermitian8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randHermitian(8, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigHermitianWS(a, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul8(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randHermitian(8, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mul(a)
	}
}
