package incr

import (
	"fmt"

	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Incremental top-k similarity maintenance (task 4). The O(n²) score
// matrix is cached by unordered household pair and repaired rather
// than recomputed: a household an append touched is dirty, and only
// pairs with a dirty endpoint are rescored. A clean pair's two series
// are byte-for-byte the slices its cached score was computed from
// (series only ever grow, and growth dirties the household), so the
// cache is bit-identical to recomputation; rescored pairs use the same
// stats.Dot / norm-product scoring as similarity.ComputeNaive, and
// dot-product and multiplication commutativity make the single stored
// score per unordered pair serve both row orientations exactly.
// Rebuilt per-household heaps then match the full recompute because
// timeseries.TopK selection is insertion-order-independent under its
// total (score, ID) order, NaN ranked last.

type pairKey struct {
	lo, hi timeseries.ID // lo < hi
}

func orderPair(a, b timeseries.ID) pairKey {
	if a < b {
		return pairKey{a, b}
	}
	return pairKey{b, a}
}

type topkState struct {
	dirty  map[timeseries.ID]bool
	norms  map[timeseries.ID]float64
	scores map[pairKey]float64
}

// TopK returns the current top-k match lists in ascending household-ID
// order, repairing the score cache first. Like the batch task it
// requires at least two households of equal, nonzero length — call it
// at aligned points (e.g. shared day boundaries).
func (a *Analytics) TopK() ([]*similarity.Result, error) {
	n := len(a.ids)
	if n < 2 {
		return nil, similarity.ErrTooFew
	}
	length := len(a.vals[a.ids[0]])
	for _, id := range a.ids {
		if len(a.vals[id]) != length {
			return nil, fmt.Errorf("incr: series %d length %d differs from %d",
				id, len(a.vals[id]), length)
		}
	}
	if length == 0 {
		return nil, similarity.ErrEmptySeries
	}
	for id := range a.topk.dirty {
		a.topk.norms[id] = stats.Norm(a.vals[id])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ii, jj := a.ids[i], a.ids[j]
			pk := pairKey{ii, jj}
			if !a.topk.dirty[ii] && !a.topk.dirty[jj] {
				a.stats.PairsReused++
				continue
			}
			dot, err := stats.Dot(a.vals[ii], a.vals[jj])
			if err != nil {
				return nil, err
			}
			var score float64
			ni, nj := a.topk.norms[ii], a.topk.norms[jj]
			if !stats.IsZero(ni) && !stats.IsZero(nj) {
				score = dot / (ni * nj)
			}
			a.topk.scores[pk] = score
			a.stats.PairsRescored++
		}
	}
	for id := range a.topk.dirty {
		delete(a.topk.dirty, id)
	}
	out := make([]*similarity.Result, 0, n)
	for i := 0; i < n; i++ {
		tk := timeseries.NewTopK(a.cfg.K)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			tk.Add(a.ids[j], a.topk.scores[orderPair(a.ids[i], a.ids[j])])
		}
		out = append(out, &similarity.Result{ID: a.ids[i], Matches: tk.Results()})
	}
	return out, nil
}
