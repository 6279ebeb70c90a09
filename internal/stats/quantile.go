package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7 estimator, the default in
// R, NumPy and Matlab's quantile). The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// Quantiles returns multiple quantiles of xs with a single sort. The qs
// need not be ordered. The input is not modified.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmptyInput
	}
	for _, q := range qs {
		if q < 0 || q > 1 {
			return nil, fmt.Errorf("stats: quantile %g out of [0,1]", q)
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

// QuantileSorted is like Quantile but assumes xs is already sorted
// ascending, avoiding the copy and sort.
func QuantileSorted(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmptyInput
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, frac := quantileRanks(len(sorted), q)
	return interpolate(sorted[lo], sorted[hi], lo, hi, frac)
}

// quantileRanks returns the order statistics the type-7 estimator at
// level q reads out of n >= 1 sorted values and the weight of the upper
// one: the estimate is v[lo]*(1-frac) + v[hi]*frac, or v[lo] alone when
// hi == lo (a single value, or q at the top of the range).
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if n == 1 {
		return 0, 0, 0
	}
	pos := float64(q * float64(n-1))
	lo = int(pos)
	if lo >= n-1 {
		return n - 1, n - 1, 0
	}
	return lo, lo + 1, pos - float64(lo)
}

// interpolate is the other half of the estimator. Both products are
// always formed when hi > lo, so a NaN or Inf at rank hi reaches the
// result even under a zero weight, exactly as it always has.
func interpolate(vlo, vhi float64, lo, hi int, frac float64) float64 {
	if hi == lo {
		return vlo
	}
	return float64(vlo*(1-frac)) + float64(vhi*frac)
}

// SelectQuantilePair returns the type-7 quantiles of xs at the levels
// qLo and qHi (each in [0, 1]; xs non-empty) without sorting: it
// partially reorders xs in place until the at most four order
// statistics the two estimates read sit at their sorted ranks. The
// values are bit-identical to slices.Sort followed by QuantileSorted,
// under the same order (NaNs first), with two ties that order leaves
// open and a sort resolves arbitrarily: -0 against +0, and NaNs of
// different payloads.
//
// It is the per-bin kernel of 3-line phase T1: a bin of n readings
// costs O(n) expected instead of O(n log n), and nothing is allocated.
func SelectQuantilePair(xs []float64, qLo, qHi float64) (lo, hi float64) {
	n := len(xs)
	a0, a1, fa := quantileRanks(n, qLo)
	b0, b1, fb := quantileRanks(n, qHi)

	// NaNs sort first and compare false with everything; moving them to
	// the front once keeps the partition loops on a plain <.
	nans := 0
	for i, v := range xs {
		if math.IsNaN(v) {
			xs[i], xs[nans] = xs[nans], v
			nans++
		}
	}

	// The wanted ranks, ascending and distinct; the NaNs' are settled.
	buf := [4]int{a0, a1, b0, b1}
	slices.Sort(buf[:])
	ranks := slices.Compact(buf[:])
	for len(ranks) > 0 && ranks[0] < nans {
		ranks = ranks[1:]
	}
	selectRanks(xs[nans:], nans, ranks, 2*bits.Len(uint(n)))

	return interpolate(xs[a0], xs[a1], a0, a1, fa), interpolate(xs[b0], xs[b1], b0, b1, fb)
}

// selectSmall is the length at or below which selectRanks stops
// partitioning and insertion-sorts.
const selectSmall = 12

// selectRanks reorders the NaN-free xs, which occupies positions
// off..off+len(xs)-1 of the full slice, so that every position listed in
// ranks (ascending, distinct, inside xs) holds the value a full sort
// would put there. It is quickselect for several ranks at once:
// partition around a median-of-three pivot, then go on only into the
// sides that still contain a wanted rank. Values equal to the pivot are
// split off as a block of their own whenever a rank lies at or above
// them, so Wh-rounded readings with many duplicates get cheaper, not
// slower, and every round shrinks the slice. depth bounds the rounds;
// when a hostile order exhausts it the rest is sorted, which keeps the
// worst case at O(n log n).
func selectRanks(xs []float64, off int, ranks []int, depth int) {
	for len(ranks) > 0 {
		n := len(xs)
		if n <= selectSmall {
			insertionSort(xs)
			return
		}
		if depth == 0 {
			slices.Sort(xs)
			return
		}
		depth--
		p := median3(xs[0], xs[n/2], xs[n-1])
		lt := partitionBelow(xs, p)
		i := 0
		for i < len(ranks) && ranks[i] < off+lt {
			i++
		}
		left, right := ranks[:i], ranks[i:]
		gt := lt
		if len(right) > 0 {
			// The pivot is one of the values, so the block is not empty;
			// the positions off+lt..off+gt-1 it fills are final.
			gt += partitionAtMost(xs[lt:], p)
			for len(right) > 0 && right[0] < off+gt {
				right = right[1:]
			}
		}
		selectRanks(xs[:lt], off, left, depth)
		xs, off, ranks = xs[gt:], off+gt, right
	}
}

// partitionBelow moves the values below p to the front of xs, in no
// particular order, and returns how many there are. Every element is
// swapped whether it is below p or not, and the boundary advances by the
// comparison's outcome as a number; written as "0, or 1 if", the compiler
// emits a SETcc and an add where "if v < p { lt++ }" would be a branch.
// On readings in random order that branch mispredicts every other
// element and costs as much as all the rest of T1.
func partitionBelow(xs []float64, p float64) int {
	lt := 0
	for j, v := range xs {
		xs[j] = xs[lt]
		xs[lt] = v
		below := 0
		if v < p {
			below = 1
		}
		lt += below
	}
	return lt
}

// partitionAtMost is partitionBelow for the values not above p.
func partitionAtMost(xs []float64, p float64) int {
	le := 0
	for j, v := range xs {
		xs[j] = xs[le]
		xs[le] = v
		atMost := 0
		if v <= p {
			atMost = 1
		}
		le += atMost
	}
	return le
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i
		for j > 0 && xs[j-1] > v {
			xs[j] = xs[j-1]
			j--
		}
		xs[j] = v
	}
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }
