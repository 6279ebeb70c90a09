package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a regression design matrix is rank
// deficient (e.g. all x values identical).
var ErrSingular = errors.New("stats: singular system")

// Line is a fitted simple linear model y = Slope*x + Intercept.
type Line struct {
	Slope, Intercept float64
}

// At evaluates the line at x.
func (l Line) At(x float64) float64 { return float64(l.Slope*x) + l.Intercept }

// LinearFit fits a least-squares line to the points (x[i], y[i]).
// It requires at least two points and non-constant x.
func LinearFit(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	if len(x) < 2 {
		return Line{}, fmt.Errorf("stats: need >= 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i, xv := range x {
		sx += xv
		sy += y[i]
		sxx += float64(xv * xv)
		sxy += float64(xv * y[i])
	}
	den := float64(n*sxx) - float64(sx*sx)
	if IsZero(den) || math.Abs(den) < 1e-12*math.Abs(n*sxx) {
		return Line{}, fmt.Errorf("%w: constant regressor", ErrSingular)
	}
	slope := (float64(n*sxy) - float64(sx*sy)) / den
	return Line{Slope: slope, Intercept: (sy - float64(slope*sx)) / n}, nil
}

// WeightedLinearFit fits a weighted least-squares line. Weights must be
// non-negative and sum to a positive value.
func WeightedLinearFit(x, y, w []float64) (Line, error) {
	if len(x) != len(y) || len(x) != len(w) {
		return Line{}, ErrLengthMismatch
	}
	if len(x) < 2 {
		return Line{}, fmt.Errorf("stats: need >= 2 points, got %d", len(x))
	}
	var sw, sx, sy, sxx, sxy float64
	for i, xv := range x {
		wi := w[i]
		if wi < 0 {
			return Line{}, fmt.Errorf("stats: negative weight %g", wi)
		}
		sw += wi
		sx += float64(wi * xv)
		sy += float64(wi * y[i])
		sxx += float64(wi * xv * xv)
		sxy += float64(wi * xv * y[i])
	}
	if sw <= 0 {
		return Line{}, fmt.Errorf("stats: weights sum to %g", sw)
	}
	den := float64(sw*sxx) - float64(sx*sx)
	if IsZero(den) {
		return Line{}, fmt.Errorf("%w: constant regressor", ErrSingular)
	}
	slope := (float64(sw*sxy) - float64(sx*sy)) / den
	return Line{Slope: slope, Intercept: (sy - float64(slope*sx)) / sw}, nil
}

// LinearModel is a fitted multiple linear regression
// y = Coef[0]*x0 + ... + Coef[p-1]*x(p-1) + Intercept.
type LinearModel struct {
	Coef      []float64
	Intercept float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
}

// Predict evaluates the model at the regressor vector x.
func (m *LinearModel) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Coef) {
		return 0, fmt.Errorf("%w: model has %d coefficients, got %d regressors",
			ErrLengthMismatch, len(m.Coef), len(x))
	}
	y := m.Intercept
	for i, c := range m.Coef {
		y += float64(c * x[i])
	}
	return y, nil
}

// Regress fits a multiple linear regression of y on the rows of X by
// solving the normal equations with partial-pivot Gaussian elimination.
// Each X[i] is one observation's regressor vector; all rows must have the
// same length p >= 1 and there must be more than p observations.
func Regress(X [][]float64, y []float64) (*LinearModel, error) {
	n := len(X)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	if n != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrLengthMismatch, n, len(y))
	}
	p := len(X[0])
	if p == 0 {
		return nil, fmt.Errorf("stats: zero regressors")
	}
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrLengthMismatch, i, len(row), p)
		}
	}
	if n <= p {
		return nil, fmt.Errorf("stats: need more than %d observations, got %d", p, n)
	}

	// Build the (p+1)x(p+1) normal-equation system including an intercept
	// column: A = Z'Z, b = Z'y where Z = [X | 1].
	d := p + 1
	a := NewMatrix(d, d)
	b := make([]float64, d)
	for i := 0; i < n; i++ {
		row := X[i]
		for j := 0; j < p; j++ {
			zj := row[j]
			for k := j; k < p; k++ {
				a.Set(j, k, a.At(j, k)+float64(zj*row[k]))
			}
			a.Set(j, p, a.At(j, p)+zj)
			b[j] += float64(zj * y[i])
		}
		a.Set(p, p, a.At(p, p)+1)
		b[p] += y[i]
	}
	// Mirror the upper triangle.
	for j := 0; j < d; j++ {
		for k := j + 1; k < d; k++ {
			a.Set(k, j, a.At(j, k))
		}
	}

	coef, err := a.Solve(b)
	if err != nil {
		return nil, err
	}
	m := &LinearModel{Coef: coef[:p], Intercept: coef[p]}

	// R² on the training data.
	ybar, _ := Mean(y)
	var ssTot, ssRes float64
	for i := 0; i < n; i++ {
		pred, _ := m.Predict(X[i])
		r := y[i] - pred
		ssRes += float64(r * r)
		dy := y[i] - ybar
		ssTot += float64(dy * dy)
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	} else {
		m.R2 = 1
	}
	return m, nil
}
