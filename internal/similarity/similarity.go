// Package similarity implements benchmark task 4 (paper §3.4): for each
// of the n consumption series, find the top-k most similar other series
// under cosine similarity. The task is O(n²) in the number of consumers
// and is the benchmark's stress test for pairwise computation — "by far
// the most expensive" workload in the paper's evaluation (§5.3.4).
//
// The engine is blocked, symmetric, and load-balanced: the dataset is
// packed into a contiguous row-major timeseries.FlatMatrix with
// precomputed inverse norms (zero-copy when the storage engine already
// lays series out that way); the n x n score space is tiled into 8×8
// tiles and each unordered tile pair is computed once — cosine is
// symmetric, so an off-diagonal tile's scores feed both the query
// block's and the candidate block's top-k heaps, halving the dot-product
// work. stats.CosineTile scores a tile as 2×2 blocks of its 4×4 vector
// kernel where the CPU has one, on the Go lanes elsewhere, and parallel
// runs pull tile pairs off a shared atomic counter (internal/sched) so
// stragglers cannot inherit an oversized static range. Every path
// computes one accumulation pattern (see internal/stats), so a pair's
// score is a pure function of the two rows, and timeseries.TopK orders
// every score, NaN included: the output is bit-identical at any worker
// count. ComputeNaive keeps the original scalar per-pair path as the
// correctness oracle and ablation baseline.
package similarity

import (
	"errors"
	"fmt"
	"runtime"

	"github.com/smartmeter/smartbench/internal/sched"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// DefaultK is the k fixed by the benchmark definition (top-10).
const DefaultK = 10

// tileSize is the edge of the square score tiles the symmetric engine
// schedules: small enough that even modest datasets yield plenty of
// tile pairs to balance across workers, large enough that each claimed
// pair amortizes its scheduling and heap overhead over tileSize² dot
// products.
const tileSize = 8

// Result is the top-k match list for one consumer, ordered best-first.
type Result struct {
	ID      timeseries.ID
	Matches []timeseries.Match
}

// ErrTooFew is returned when the dataset has fewer than two series.
var ErrTooFew = errors.New("similarity: need at least two series")

// ErrEmptySeries is returned when the series have no readings. Without
// this check a dataset of equal-length zero-reading series would
// "succeed" with every score silently zero, since each dot product and
// norm is an empty sum. Note the contract for the distinct zero-NORM
// case: a series whose readings are all zero (but present) scores 0
// against every candidate — a flat consumer is similar to nothing —
// and that is deliberate, not an error.
var ErrEmptySeries = errors.New("similarity: series have no readings")

// validate applies the shared argument checks and returns the number of
// series.
func validate(d *timeseries.Dataset, k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("similarity: k must be positive, got %d", k)
	}
	n := len(d.Series)
	if n < 2 {
		return 0, ErrTooFew
	}
	length := len(d.Series[0].Readings)
	for _, s := range d.Series {
		if len(s.Readings) != length {
			return 0, fmt.Errorf("similarity: series %d length %d differs from %d",
				s.ID, len(s.Readings), length)
		}
	}
	if length == 0 {
		return 0, ErrEmptySeries
	}
	return n, nil
}

// Compute finds the top-k most cosine-similar other consumers for every
// consumer using the blocked kernel on a single goroutine.
func Compute(d *timeseries.Dataset, k int) ([]*Result, error) {
	return computeBlocked(d, k, 1)
}

// ComputeParallel is Compute with the query blocks dynamically
// scheduled across the given number of goroutines (0 means GOMAXPROCS).
// Workers claim fixed-size query blocks off a shared counter — the
// paper's §5.3.4 parallelization, but load-balanced instead of giving
// each task one static fraction of the series. Output is identical to
// Compute regardless of the worker count.
func ComputeParallel(d *timeseries.Dataset, k, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return computeBlocked(d, k, workers)
}

func computeBlocked(d *timeseries.Dataset, k, workers int) ([]*Result, error) {
	n, err := validate(d, k)
	if err != nil {
		return nil, err
	}
	m, err := d.Flat()
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	// The n x n score space is tiled into square blocks; only the upper
	// triangle of tile pairs (I <= J) is computed, since an off-diagonal
	// tile's scores serve both orientations. Workers claim tile pairs
	// off the shared counter and collect matches into private per-row
	// heaps; the merge below is deterministic because top-k selection
	// under the total (score, ID) order does not depend on insertion
	// order, and every pair's score is bit-pure (see stats.CosineTile).
	tiles := (n + tileSize - 1) / tileSize
	pairs := tiles * (tiles + 1) / 2
	buf := make([][]float64, workers)
	heaps := make([][]*timeseries.TopK, workers)
	for w := 0; w < workers; w++ {
		buf[w] = make([]float64, tileSize*tileSize)
		heaps[w] = make([]*timeseries.TopK, n)
	}
	if err := sched.Run(pairs, 1, workers, func(w, lo, hi int) error {
		for t := lo; t < hi; t++ {
			i, j := tilePair(t, tiles)
			scanPair(m, buf[w], heaps[w], i, j, k)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]*Result, n)
	for r := 0; r < n; r++ {
		var tk *timeseries.TopK
		for w := 0; w < workers; w++ {
			h := heaps[w][r]
			if h == nil {
				continue
			}
			if tk == nil {
				tk = h
				continue
			}
			for _, mt := range h.Results() {
				tk.Add(mt.ID, mt.Score)
			}
		}
		out[r] = &Result{ID: m.ID(r), Matches: tk.Results()}
	}
	return out, nil
}

// tilePair maps a linear index into the upper triangle of tile pairs:
// t = 0 .. tiles*(tiles+1)/2 - 1 enumerates (0,0), (0,1), ...,
// (0,tiles-1), (1,1), ... row by row.
func tilePair(t, tiles int) (i, j int) {
	for i = 0; i < tiles; i++ {
		row := tiles - i
		if t < row {
			return i, i + t
		}
		t -= row
	}
	panic("similarity: tile pair index out of range")
}

// scanPair scores tile pair (ti, tj) and feeds the per-row heaps. For a
// diagonal pair the full square is computed (both orientations of each
// in-tile pair appear directly); for an off-diagonal pair each score is
// added under both orientations — cosine is symmetric, and the kernels
// make the mirrored score bit-identical to a direct computation.
func scanPair(m *timeseries.FlatMatrix, tile []float64, heaps []*timeseries.TopK, ti, tj, k int) {
	n, length := m.N(), m.Len()
	qlo, qhi := ti*tileSize, min((ti+1)*tileSize, n)
	clo, chi := tj*tileSize, min((tj+1)*tileSize, n)
	qn, cn := qhi-qlo, chi-clo
	data, inv := m.Data(), m.InvNorms()
	stats.CosineTile(tile[:qn*cn], data[qlo*length:qhi*length], data[clo*length:chi*length],
		qn, cn, length, inv[qlo:qhi], inv[clo:chi])
	for qi := 0; qi < qn; qi++ {
		q := qlo + qi
		row := tile[qi*cn : (qi+1)*cn]
		for ci, score := range row {
			c := clo + ci
			if c == q {
				continue
			}
			addMatch(heaps, q, m.ID(c), score, k)
			if ti != tj {
				addMatch(heaps, c, m.ID(q), score, k)
			}
		}
	}
}

// addMatch offers a score to row r's heap, allocating it lazily — a
// worker only materializes heaps for rows its claimed tiles touch.
func addMatch(heaps []*timeseries.TopK, r int, id timeseries.ID, score float64, k int) {
	tk := heaps[r]
	if tk == nil {
		tk = timeseries.NewTopK(k)
		heaps[r] = tk
	}
	tk.Add(id, score)
}

// ComputeNaive is the original scalar path — one checked stats.Dot per
// pair over the per-series slices, with precomputed norms — retained as
// the correctness oracle for the blocked kernel and as the ablation
// baseline the benchmarks compare against.
func ComputeNaive(d *timeseries.Dataset, k int) ([]*Result, error) {
	n, err := validate(d, k)
	if err != nil {
		return nil, err
	}
	norms := make([]float64, n)
	for i, s := range d.Series {
		norms[i] = stats.Norm(s.Readings)
	}
	out := make([]*Result, n)
	for i := 0; i < n; i++ {
		tk := timeseries.NewTopK(k)
		si := d.Series[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dot, err := stats.Dot(si.Readings, d.Series[j].Readings)
			if err != nil {
				return nil, err
			}
			var score float64
			if !stats.IsZero(norms[i]) && !stats.IsZero(norms[j]) {
				score = dot / (norms[i] * norms[j])
			}
			tk.Add(d.Series[j].ID, score)
		}
		out[i] = &Result{ID: si.ID, Matches: tk.Results()}
	}
	return out, nil
}

// PairScore returns the cosine similarity between two series in the
// dataset, primarily for tests and spot checks.
func PairScore(a, b *timeseries.Series) (float64, error) {
	return timeseries.CosineSimilarity(a.Readings, b.Readings)
}
