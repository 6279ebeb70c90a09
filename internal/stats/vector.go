// Package stats provides the statistical kernels used throughout the
// smart meter benchmark: vector arithmetic, equi-width histograms, exact
// quantiles, ordinary least squares (simple and multiple), dense matrices,
// and streaming moments.
//
// All functions are deterministic and allocation-conscious; they form the
// "hand-written operators" layer that the paper's System C implementation
// required, and the building blocks for every analytics task.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptyInput is returned by kernels that require at least one sample.
var ErrEmptyInput = errors.New("stats: empty input")

// ErrLengthMismatch is returned when paired vectors differ in length.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// Sum returns the sum of xs. It returns 0 for an empty slice.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Dot returns the dot product of x and y.
func Dot(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s, nil
}

// Norm returns the Euclidean (L2) norm of x. Each square is rounded
// before it is added (no fused multiply-add, on any platform), because
// the inverse norms are part of every similarity score's bits.
func Norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptyInput
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// A single sample has variance 0.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Scale multiplies every element of xs by c in place and returns xs.
func Scale(xs []float64, c float64) []float64 {
	for i := range xs {
		xs[i] *= c
	}
	return xs
}

// AddTo adds src to dst element-wise in place. The slices must have the
// same length.
func AddTo(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(dst), len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// Moments is a streaming mean/variance accumulator using Welford's
// algorithm. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates x into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples added.
func (m *Moments) N() int64 { return m.n }

// Mean returns the running mean (0 if no samples).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 if fewer than 2 samples).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
}
