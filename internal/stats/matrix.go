package stats

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float64 matrix. It backs the regression
// solver and the §5.3.2 matrix-multiplication micro-benchmark that the
// paper uses to compare Matlab's optimized kernels against System C's
// hand-written ones.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values in row-major order.
	Data []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("stats: negative matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulNaive returns m*o using the textbook triple loop (the "hand-written
// operator in a low-level language" baseline).
func (m *Matrix) MulNaive(o *Matrix) (*Matrix, error) {
	if m.Cols != o.Rows {
		return nil, fmt.Errorf("stats: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if IsZero(a) {
				continue
			}
			ok := o.Row(k)
			for j := range oi {
				oi[j] += a * ok[j]
			}
		}
	}
	return out, nil
}

// Mul returns m*o using a cache-blocked, parallel kernel (the "optimized
// vendor library" analogue of Matlab's BLAS-backed multiply).
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.Cols != o.Rows {
		return nil, fmt.Errorf("stats: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := NewMatrix(m.Rows, o.Cols)
	const block = 64
	workers := runtime.GOMAXPROCS(0)
	if workers > m.Rows {
		workers = m.Rows
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	rowsPer := (m.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		hi := lo + rowsPer
		if hi > m.Rows {
			hi = m.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for ii := lo; ii < hi; ii += block {
				iMax := ii + block
				if iMax > hi {
					iMax = hi
				}
				for kk := 0; kk < m.Cols; kk += block {
					kMax := kk + block
					if kMax > m.Cols {
						kMax = m.Cols
					}
					for i := ii; i < iMax; i++ {
						mi := m.Row(i)
						oi := out.Row(i)
						for k := kk; k < kMax; k++ {
							a := mi[k]
							ok := o.Row(k)
							for j := range oi {
								oi[j] += a * ok[j]
							}
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return out, nil
}

// Solve solves the linear system m*x = b with partial-pivot Gaussian
// elimination. m must be square and is not modified.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	n := m.Rows
	if m.Cols != n {
		return nil, fmt.Errorf("stats: Solve requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: matrix is %dx%d but b has %d entries", ErrLengthMismatch, n, n, len(b))
	}
	a := m.Clone()
	x := make([]float64, n)
	copy(x, b)
	if col, best, ok := SolveInPlace(a.Data, x); !ok {
		return nil, fmt.Errorf("%w: pivot %g at column %d", ErrSingular, best, col)
	}
	return x, nil
}

// SolveInPlace is Solve without the copies and without an allocation:
// a holds the n x n system row-major, n = len(x), and x the right-hand
// side. On return a is eliminated and x holds the solution. A column
// whose largest available pivot is below 1e-12 stops the elimination;
// it is reported with that pivot and ok false, and a and x are then
// left half eliminated.
func SolveInPlace(a, x []float64) (col int, pivot float64, ok bool) {
	n := len(x)
	a = a[:n*n]
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return col, best, false
		}
		cr := a[col*n : (col+1)*n]
		if pivot != col {
			pr := a[pivot*n : (pivot+1)*n]
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / cr[col]
		for r := col + 1; r < n; r++ {
			rr := a[r*n : (r+1)*n]
			f := rr[col] * inv
			if IsZero(f) {
				continue
			}
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := a[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return 0, 0, true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and o, for testing numerical kernels against each other.
func (m *Matrix) MaxAbsDiff(o *Matrix) (float64, error) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return 0, fmt.Errorf("stats: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	var d float64
	for i, v := range m.Data {
		if a := math.Abs(v - o.Data[i]); a > d {
			d = a
		}
	}
	return d, nil
}
