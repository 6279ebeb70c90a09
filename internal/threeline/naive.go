package threeline

import (
	"math"
	"sort"

	"github.com/smartmeter/smartbench/internal/stats"
)

// percentilePointsNaive is phase T1 the obvious way: bin the readings by
// temperature into a map, one append per reading, sort every bin in
// full, read the percentiles off the sorted bins. It is the oracle for
// Plan.percentilePoints (the bit-for-bit property test) and the baseline
// of BenchmarkT1Naive.
func percentilePointsNaive(readings, temps []float64, cfg Config) (xs, lows, highs []float64) {
	bins := make(map[int][]float64)
	for i, r := range readings {
		if b, ok := BinIndex(temps[i], cfg.BinWidth); ok {
			bins[b] = append(bins[b], r)
		}
	}
	for _, v := range bins {
		sort.Float64s(v)
	}
	return PointsFromSortedBins(bins, cfg)
}

// fitSegmentedNaive is the textbook implementation of the breakpoint
// search: for every candidate pair it refits all three segments with
// stats.LinearFit and recomputes the SSE point by point, costing
// O(n^3) against fitSegmented's prefix-sum O(n^2). It exists as the
// correctness oracle for the optimized search (see the equivalence
// property test) and as the baseline of the ablation benchmark.
func fitSegmentedNaive(xs, ys []float64, minSeg int, minSpanFrac float64) Model {
	n := len(xs)
	if n < 3*minSeg {
		line, sse := naiveFitRange(xs, ys, 0, n)
		return Model{
			Break1: math.Inf(-1), Break2: math.Inf(1),
			Heating: line, Base: line, Cooling: line,
			Degenerate: true, SSE: sse,
		}
	}
	minSpan := minSpanFrac * (xs[n-1] - xs[0])
	bestSSE, bestI, bestJ, bestLines := naiveSearch(xs, ys, n, minSeg, minSpan)
	if math.IsInf(bestSSE, 1) && minSpan > 0 {
		bestSSE, bestI, bestJ, bestLines = naiveSearch(xs, ys, n, minSeg, 0)
	}
	b1 := (xs[bestI-1] + xs[bestI]) / 2
	b2 := (xs[bestJ-1] + xs[bestJ]) / 2
	return Model{
		Break1: b1, Break2: b2,
		Heating: bestLines[0], Base: bestLines[1], Cooling: bestLines[2],
		SSE: bestSSE,
	}
}

func naiveSearch(xs, ys []float64, n, minSeg int, minSpan float64) (float64, int, int, [3]stats.Line) {
	bestSSE := math.Inf(1)
	bestI, bestJ := minSeg, 2*minSeg
	var bestLines [3]stats.Line
	for i := minSeg; i+2*minSeg <= n; i++ {
		if xs[i-1]-xs[0] < minSpan {
			continue
		}
		for j := i + minSeg; j+minSeg <= n; j++ {
			if xs[n-1]-xs[j] < minSpan {
				break
			}
			l1, s1 := naiveFitRange(xs, ys, 0, i)
			l2, s2 := naiveFitRange(xs, ys, i, j)
			l3, s3 := naiveFitRange(xs, ys, j, n)
			if t := s1 + s2 + s3; t < bestSSE {
				bestSSE = t
				bestI, bestJ = i, j
				bestLines = [3]stats.Line{l1, l2, l3}
			}
		}
	}
	return bestSSE, bestI, bestJ, bestLines
}

// naiveFitRange fits [lo, hi) with the library OLS and measures SSE
// directly.
func naiveFitRange(xs, ys []float64, lo, hi int) (stats.Line, float64) {
	line, err := stats.LinearFit(xs[lo:hi], ys[lo:hi])
	if err != nil {
		// Constant x (or a single point): horizontal line through the
		// mean, the same convention as segFitter.fit.
		mean, _ := stats.Mean(ys[lo:hi])
		line = stats.Line{Slope: 0, Intercept: mean}
	}
	var sse float64
	for k := lo; k < hi; k++ {
		r := ys[k] - line.At(xs[k])
		sse += r * r
	}
	return line, sse
}
