package stats

import (
	"math"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At = %g", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Errorf("Row = %v", row)
	}
	row[0] = 5 // views share storage
	if m.At(1, 0) != 5 {
		t.Error("Row is not a view")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i*3+j))
		}
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 31, 23}, {64, 64, 64}, {100, 70, 130}} {
		a := randomMatrix(rng, dims[0], dims[1])
		b := randomMatrix(rng, dims[1], dims[2])
		want, err := a.MulNaive(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		d, err := want.MaxAbsDiff(got)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 {
			t.Errorf("dims %v: blocked vs naive diff = %g", dims, d)
		}
	}
}

// benchMatMul times one 128×128 product: the blocked Mul against its
// textbook oracle MulNaive (§5.3.2's built-in vs hand-written gap).
func benchMatMul(b *testing.B, optimized bool) {
	const n = 128
	x := NewMatrix(n, n)
	y := NewMatrix(n, n)
	for i := range x.Data {
		x.Data[i] = float64(i % 31)
		y.Data[i] = float64(i % 29)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if optimized {
			_, err = x.Mul(y)
		} else {
			_, err = x.MulNaive(y)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulOptimized(b *testing.B) { benchMatMul(b, true) }
func BenchmarkMatMulNaive(b *testing.B)     { benchMatMul(b, false) }

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomMatrix(rng, 9, 9)
	id := NewMatrix(9, 9)
	for i := 0; i < 9; i++ {
		id.Set(i, i, 1)
	}
	got, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := a.MaxAbsDiff(got)
	if d != 0 {
		t.Errorf("A*I != A, diff %g", d)
	}
}

func TestMulShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Error("shape mismatch Mul: want error")
	}
	if _, err := a.MulNaive(b); err == nil {
		t.Error("shape mismatch MulNaive: want error")
	}
	if _, err := a.MaxAbsDiff(NewMatrix(1, 1)); err == nil {
		t.Error("shape mismatch MaxAbsDiff: want error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := a.Solve([]float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 1, 1e-12) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(20) + 1
		a := randomMatrix(rng, n, n)
		// Diagonally dominate to guarantee non-singularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a.At(i, j) * want[j]
			}
		}
		got, err := a.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the initial pivot position; solvable only with row swaps.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := a.Solve([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 4, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := a.Solve([]float64{1, 2}); err == nil {
		t.Error("non-square: want error")
	}
	sq := NewMatrix(2, 2)
	if _, err := sq.Solve([]float64{1}); err == nil {
		t.Error("b length mismatch: want error")
	}
	// Singular matrix.
	s := NewMatrix(2, 2)
	s.Set(0, 0, 1)
	s.Set(0, 1, 2)
	s.Set(1, 0, 2)
	s.Set(1, 1, 4)
	if _, err := s.Solve([]float64{1, 2}); err == nil {
		t.Error("singular: want error")
	}
}

func TestSolveDoesNotMutate(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	orig := a.Clone()
	b := []float64{8, 4}
	if _, err := a.Solve(b); err != nil {
		t.Fatal(err)
	}
	if d, _ := a.MaxAbsDiff(orig); d != 0 {
		t.Error("Solve mutated the matrix")
	}
	if b[0] != 8 || b[1] != 4 {
		t.Error("Solve mutated b")
	}
}
