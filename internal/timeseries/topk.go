package timeseries

import (
	"container/heap"
	"math"
	"sort"

	"github.com/smartmeter/smartbench/internal/stats"
)

// Match is one similarity-search result: the matched consumer and the
// cosine similarity score.
type Match struct {
	ID    ID
	Score float64
}

// TopK maintains the k best-scoring matches seen so far using a min-heap,
// so inserting n candidates costs O(n log k). Ties are broken toward the
// lower ID for deterministic output; NaN scores rank last.
type TopK struct {
	k int
	h matchHeap
}

// NewTopK returns a collector for the k best matches. k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("timeseries: TopK requires k > 0")
	}
	return &TopK{k: k}
}

// Add offers a candidate match.
func (t *TopK) Add(id ID, score float64) {
	if len(t.h) < t.k {
		heap.Push(&t.h, Match{ID: id, Score: score})
		return
	}
	if worse(Match{ID: id, Score: score}, t.h[0]) {
		return
	}
	t.h[0] = Match{ID: id, Score: score}
	heap.Fix(&t.h, 0)
}

// Len returns the number of matches currently held (<= k).
func (t *TopK) Len() int { return len(t.h) }

// Results returns the collected matches ordered best-first.
func (t *TopK) Results() []Match {
	out := make([]Match, len(t.h))
	copy(out, t.h)
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}

// worse reports whether a ranks strictly below b (lower score, or equal
// score with a higher ID). A NaN score ranks below every number and
// NaNs among themselves by ID, so that the order stays total and the
// k selected do not depend on the order they were offered in.
func worse(a, b Match) bool {
	an, bn := math.IsNaN(a.Score), math.IsNaN(b.Score)
	if an != bn {
		return an
	}
	if !an && !stats.ExactEqual(a.Score, b.Score) {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

type matchHeap []Match

func (h matchHeap) Len() int            { return len(h) }
func (h matchHeap) Less(i, j int) bool  { return worse(h[i], h[j]) }
func (h matchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *matchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}
