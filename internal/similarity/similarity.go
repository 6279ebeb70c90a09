// Package similarity implements benchmark task 4 (paper §3.4): for each
// of the n consumption series, find the top-k most similar other series
// under cosine similarity. The task is O(n²) in the number of consumers
// and is the benchmark's stress test for pairwise computation — "by far
// the most expensive" workload in the paper's evaluation (§5.3.4).
//
// The engine is blocked, symmetric, load-balanced and pruned, and its
// output is exact. The dataset is packed into a contiguous row-major
// timeseries.FlatMatrix with precomputed inverse norms (zero-copy when
// the storage engine already lays series out that way). The n x n score
// space is tiled into 8×8 tiles over the rows in load-shape order, and
// each unordered tile pair is computed at most once: cosine is
// symmetric, so an off-diagonal tile's scores feed both the query and
// the candidate rows' top-k heaps. stats.CosineTile scores a tile from
// two lists of row indices, so the matrix is never permuted or copied.
// Parallel runs pull rows of tile pairs off a shared atomic counter
// (internal/sched).
//
// Most tile pairs are never scored. The tile pairs near the diagonal
// are scored first, which gives every row a threshold θ, its k-th best
// score so far. A cheap bound over a reduced matrix (segment means and a
// residual norm per row, scored through the same kernel) then rules out
// every remaining tile pair in which no pair can beat both of its rows'
// θ; see computeBlocked. Every score that is computed follows one
// accumulation pattern (see internal/stats), so it is a pure function of
// the two rows, and timeseries.TopK orders every score, NaN included,
// and does not depend on insertion order. A pair is skipped only when it
// provably loses. The output is therefore bit-identical to scoring all
// pairs, at any worker count. ComputeNaive keeps the original scalar
// per-pair path as the correctness oracle and ablation baseline.
package similarity

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

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
	out, _, err := computeBlocked(d, k, 1, segment, band)
	return out, err
}

// ComputeParallel is Compute with the tile pairs dynamically scheduled
// across the given number of goroutines (0 means GOMAXPROCS). Workers
// claim rows of tile pairs off a shared counter — the paper's §5.3.4
// parallelization, but load-balanced instead of giving each task one
// static fraction of the series. Output is identical to Compute
// regardless of the worker count.
func ComputeParallel(d *timeseries.Dataset, k, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out, _, err := computeBlocked(d, k, workers, segment, band)
	return out, err
}

// The pruned scan's constants, chosen from the gate count in
// EXPERIMENTS.md ("Similarity that skips pairs"): the share of tile
// pairs scored exactly plus the bound tiles' share of an exact tile's
// cost, least over generator seeds at 640 consumers × 365 days.
const (
	// segment is the number of readings each reduced value averages.
	segment = 12
	// band is how many tile diagonals beside the main one phase 1
	// scores exactly to set every row's threshold.
	band = 3
	// shapeIters is the number of power iterations behind the
	// load-shape order.
	shapeIters = 8
	// months is the number of equal spans of a series whose means make
	// up its load shape.
	months = 12
)

// scan is one run of the pruned engine. The rows are visited in
// load-shape order: tile I holds the rows order[I*tileSize:], so rows
// with similar shapes share a tile and dissimilar ones are far apart,
// where the bound rules their tile pairs out. The matrix itself is
// never permuted or copied; the kernel takes row indices.
type scan struct {
	m       *timeseries.FlatMatrix
	k       int
	order   []int
	tiles   int
	red     []float64 // reduced matrix: n rows of redLen, see reduce
	redLen  int
	theta   []float64 // per row: the phase-1 k-th best score, -Inf where nothing may be skipped
	margin  float64
	tile    [][]float64 // per worker: the exact score tile
	bound   [][]float64 // per worker: the bound tile
	heaps   [][]*timeseries.TopK
	skipped atomic.Int64
}

// computeBlocked runs the engine with the given segment length and band
// and also returns how many off-band tile pairs the bound skipped. Every
// run produces the output of scoring all pairs, at any worker count,
// segment and band: a pair is skipped only when its bound proves that
// neither of its rows can rank it in its top-k, and every score that is
// computed is a pure function of its two rows.
//
// The run has five steps. One parallel pass reduces every row (reduce).
// The rows are ordered by load shape (shapeOrder). Phase 1 scores the
// tile pairs within band diagonals of the main one exactly, and the
// worker heaps are merged into each row's threshold θ, the k-th best
// score so far. Phase 2 bounds each remaining tile pair over the reduced
// matrix and skips it when every entry's bound plus the margin is
// strictly below both of its rows' θ, else scores it exactly. The heaps
// are merged last.
func computeBlocked(d *timeseries.Dataset, k, workers, seg, band int) ([]*Result, int, error) {
	n, err := validate(d, k)
	if err != nil {
		return nil, 0, err
	}
	m, err := d.Flat()
	if err != nil {
		return nil, 0, err
	}
	workers = max(workers, 1)
	s := &scan{m: m, k: k, tiles: (n + tileSize - 1) / tileSize, margin: margin(m.Len())}
	s.tile, s.bound = make([][]float64, workers), make([][]float64, workers)
	s.heaps = make([][]*timeseries.TopK, workers)
	for w := range workers {
		s.tile[w] = make([]float64, tileSize*tileSize)
		s.bound[w] = make([]float64, tileSize*tileSize)
		s.heaps[w] = make([]*timeseries.TopK, n)
	}
	if err := s.reduce(seg, workers); err != nil {
		return nil, 0, err
	}
	s.order = shapeOrder(s.red, n, s.redLen)
	// A unit of work is one row I of the upper triangle of tile pairs,
	// its pairs (I, J) taken in ascending J so that the query tile stays
	// cache-hot; workers claim rows off the shared counter.
	if err := sched.Run(s.tiles, 1, workers, func(w, lo, hi int) error {
		for i := lo; i < hi; i++ {
			for j := i; j <= min(i+band, s.tiles-1); j++ {
				s.scanPair(w, i, j)
			}
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	s.theta = make([]float64, n)
	for r := range n {
		s.theta[r] = math.Inf(-1)
		tk := s.merge(r)
		s.heaps[0][r] = tk
		if tk != nil && tk.Len() == k && s.boundable(r) {
			s.theta[r] = tk.Results()[k-1].Score
		}
	}
	if err := sched.Run(s.tiles, 1, workers, func(w, lo, hi int) error {
		for i := lo; i < hi; i++ {
			for j := i + band + 1; j < s.tiles; j++ {
				if s.ruledOut(w, i, j) {
					s.skipped.Add(1)
					continue
				}
				s.scanPair(w, i, j)
			}
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	out := make([]*Result, n)
	for r := range n {
		out[r] = &Result{ID: m.ID(r), Matches: s.merge(r).Results()}
	}
	return out, int(s.skipped.Load()), nil
}

// merge folds every worker's heap for row r into one and returns it
// (nil when no worker has scored the row yet). The result does not
// depend on how the pairs were split among the workers, because top-k
// selection under the total (score, ID) order does not depend on
// insertion order.
func (s *scan) merge(r int) *timeseries.TopK {
	var tk *timeseries.TopK
	for w := range s.heaps {
		h := s.heaps[w][r]
		s.heaps[w][r] = nil
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
	return tk
}

// rowsOf returns the matrix rows of tile t.
func (s *scan) rowsOf(t int) []int {
	return s.order[t*tileSize : min((t+1)*tileSize, len(s.order))]
}

// scanPair scores tile pair (ti, tj) exactly and feeds worker w's heaps.
// For a diagonal pair the full square is computed (both orientations of
// each in-tile pair appear directly); for an off-diagonal pair each
// score is added under both orientations — cosine is symmetric, and the
// kernel makes the mirrored score bit-identical to a direct computation.
func (s *scan) scanPair(w, ti, tj int) {
	qRows, cRows := s.rowsOf(ti), s.rowsOf(tj)
	tile := s.tile[w][:len(qRows)*len(cRows)]
	stats.CosineTile(tile, s.m.Data(), s.m.Len(), s.m.InvNorms(), qRows, cRows)
	heaps := s.heaps[w]
	for qi, q := range qRows {
		for ci, c := range cRows {
			if c == q {
				continue
			}
			score := tile[qi*len(cRows)+ci]
			addMatch(heaps, q, s.m.ID(c), score, s.k)
			if ti != tj {
				addMatch(heaps, c, s.m.ID(q), score, s.k)
			}
		}
	}
}

// ruledOut reports whether tile pair (ti, tj) can be skipped: whether,
// for every pair (q, c) in it, the bound plus the margin is strictly
// below both θ_q and θ_c. A row that may not be skipped has θ = -Inf,
// and a NaN anywhere fails the comparison, so either resolves to
// "compute".
func (s *scan) ruledOut(w, ti, tj int) bool {
	qRows, cRows := s.rowsOf(ti), s.rowsOf(tj)
	for _, rows := range [2][]int{qRows, cRows} {
		for _, r := range rows {
			if !(s.theta[r] > math.Inf(-1)) {
				return false
			}
		}
	}
	bound := s.bound[w][:len(qRows)*len(cRows)]
	stats.CosineTile(bound, s.red, s.redLen, s.m.InvNorms(), qRows, cRows)
	for qi, q := range qRows {
		for ci, c := range cRows {
			b := bound[qi*len(cRows)+ci] + s.margin
			if !(b < s.theta[q] && b < s.theta[c]) {
				return false
			}
		}
	}
	return true
}

// reduce fills the reduced matrix, one parallel pass over the rows. Row
// r's reduced row holds, for each whole segment b of seg readings, the
// segment's mean a_b times √seg, and last the residual norm
// ‖x − a‖, where a repeats each segment's mean over its readings and is
// 0 over a tail shorter than a segment. Its dot with another reduced row
// is Σ_b seg·a_b·c_b + ‖x−a‖‖y−c‖, which bounds ⟨x, y⟩ (the residuals sum
// to zero over each segment, then Cauchy–Schwarz), and its norm is ‖x‖:
// through the matrix's inverse norms the kernel turns it into a bound on
// the cosine.
func (s *scan) reduce(seg, workers int) error {
	n, length := s.m.N(), s.m.Len()
	segs := length / seg
	s.redLen = segs + 1
	s.red = make([]float64, n*s.redLen)
	scale := math.Sqrt(float64(seg))
	return sched.Run(n, 16, workers, func(_, lo, hi int) error {
		for r := lo; r < hi; r++ {
			x, red := s.m.Row(r), s.red[r*s.redLen:(r+1)*s.redLen]
			var res float64
			for b := range segs {
				part := x[b*seg : (b+1)*seg]
				var sum float64
				for _, v := range part {
					sum += v
				}
				mean := sum / float64(seg)
				red[b] = float64(mean * scale)
				for _, v := range part {
					res += float64((v - mean) * (v - mean))
				}
			}
			for _, v := range x[segs*seg:] {
				res += float64(v * v)
			}
			red[segs] = math.Sqrt(res)
		}
		return nil
	})
}

// boundable reports whether row r's pairs may be skipped: its inverse
// norm lies in [2⁻⁴⁰⁰, 2⁴⁰⁰] and its reduced values are finite. That
// excludes NaN, ±Inf and all-zero rows (whose inverse norm is NaN or 0)
// and rows so small or large that a score or its bound could underflow
// or overflow, outside the range margin derives its rounding for.
func (s *scan) boundable(r int) bool {
	if inv := s.m.InvNorm(r); !(inv >= 0x1p-400 && inv <= 0x1p400) {
		return false
	}
	for _, v := range s.red[r*s.redLen : (r+1)*s.redLen] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// margin is how far a computed score may lie above its computed bound,
// in cosine units, for rows of the given length. Let u = 2⁻⁵³ and
// γ(n) = n·u/(1−n·u), and measure every error in units of ‖x‖‖y‖, in
// which Cauchy–Schwarz (Σ|x_i·y_i| ≤ ‖x‖‖y‖) makes a cosine, a bound and
// every partial sum at most about 1 whatever the data's sign or
// magnitude. For a boundable pair each operation is exact up to a factor
// 1+δ, |δ| ≤ u (underflow aside, below):
//   - The score's dot sums L rounded products in two chains: its error
//     is at most γ(L+1)·Σ|x_i·y_i| ≤ γ(L+1).
//   - The bound's dot sums at most L+1 products of reduced values whose
//     norms are ‖x‖ and ‖y‖ up to γ(L+2): at most γ(L+2)(1+γ(L+2))².
//   - Each product of two reduced values, a_b·fl(√s) times c_b·fl(√s),
//     is s·a_b·c_b up to γ(5), and Σ s·|a_b·c_b| ≤ ‖x‖‖y‖: γ(5).
//   - ⟨x,y⟩ = Σ s·a_b·c_b + Σ a_b·Σ(y−c_b) + Σ c_b·Σ(x−a_b) + ⟨x−a,y−c⟩
//     for any segment constants. A computed mean is off by at most
//     γ(s)·Σ|x|/s, so by Cauchy–Schwarz, per segment and over them, each
//     middle sum is at most γ(s)(1+γ(s)) ≤ γ(L+1). The last term is at
//     most ‖x−a‖‖y−c‖, and each computed residual norm is within γ(L+3).
//   - Score and bound are both scaled by the same product of inverse
//     norms, 1/(‖x‖‖y‖) up to γ(L+6), and rounded once more: 2u.
//
// The sum is below 8·γ(L+8); the margin doubles it. That also covers
// gradual underflow: a subnormal result adds at most 2⁻¹⁰⁷⁴, a boundable
// pair has ‖x‖‖y‖ ≥ 2⁻⁸⁰⁰, and a few L such errors weigh under 2⁻²⁵⁰.
// At L = 8760 the margin is 1.6e-11, far inside the gaps between scores
// that decide a top-k.
func margin(length int) float64 {
	const u = 0x1p-53
	n := float64(2*length + 16)
	return 8 * n * u / (1 - float64(n*u))
}

// shapeOrder returns the rows of the reduced matrix ordered by load
// shape: each row's means over months equal spans of its segments,
// scaled to unit length and centred on their average over the rows, are
// projected on the first principal component, found by shapeIters power
// iterations from the all-ones vector; ties keep row order. Rows with
// similar shapes then sit in the same or nearby tiles. The order changes
// only how many tile pairs the bound skips, never the output.
func shapeOrder(red []float64, n, redLen int) []int {
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	segs := redLen - 1
	spans := min(months, segs)
	if spans < 2 {
		return order
	}
	shapes := make([]float64, n*spans)
	mean := make([]float64, spans)
	for r := range n {
		v := shapes[r*spans : (r+1)*spans]
		for j := range v {
			for _, x := range red[r*redLen+j*segs/spans : r*redLen+(j+1)*segs/spans] {
				v[j] += x
			}
		}
		if nrm := stats.Norm(v); nrm > 0 && !math.IsInf(nrm, 1) {
			for j := range v {
				v[j] /= nrm
			}
		} else {
			clear(v)
		}
		for j := range v {
			mean[j] += v[j] / float64(n)
		}
	}
	cov := make([]float64, spans*spans)
	for r := range n {
		v := shapes[r*spans : (r+1)*spans]
		for j := range v {
			v[j] -= mean[j]
		}
		for i := range v {
			for j := range v {
				cov[i*spans+j] += float64(v[i] * v[j])
			}
		}
	}
	pc, next := make([]float64, spans), make([]float64, spans)
	for j := range pc {
		pc[j] = 1
	}
	for range shapeIters {
		for i := range next {
			next[i] = stats.DotUnchecked(cov[i*spans:(i+1)*spans], pc)
		}
		nrm := stats.Norm(next)
		if !(nrm > 0) || math.IsInf(nrm, 1) {
			break
		}
		for j := range next {
			pc[j] = next[j] / nrm
		}
	}
	key := make([]float64, n)
	for r := range n {
		key[r] = stats.DotUnchecked(shapes[r*spans:(r+1)*spans], pc)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key[a], key[b]) })
	return order
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
