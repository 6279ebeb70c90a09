package stats

import (
	"fmt"
	"math"
)

// Histogram is an equi-width histogram over a fixed [Min, Max] range.
// The benchmark always uses 10 buckets (see paper §3.1), but the type is
// general.
type Histogram struct {
	// Min and Max delimit the covered range. Values equal to Max fall in
	// the last bucket.
	Min, Max float64
	// Counts holds one frequency per bucket.
	Counts []int64
}

// NewHistogram builds an equi-width histogram with the given number of
// buckets from xs. The range is [min(xs), max(xs)]. If all values are
// equal, every sample lands in the first bucket and the width is zero.
func NewHistogram(xs []float64, buckets int) (*Histogram, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("stats: buckets must be positive, got %d", buckets)
	}
	if len(xs) == 0 {
		return nil, ErrEmptyInput
	}
	min, max, _ := MinMax(xs)
	h := &Histogram{Min: min, Max: max, Counts: make([]int64, buckets)}
	h.AddAll(xs)
	return h, nil
}

// NewHistogramRange builds an equi-width histogram over an explicit
// [min, max] range. Values outside the range are clamped into the first or
// last bucket, which lets many histograms share comparable bucket edges.
func NewHistogramRange(xs []float64, buckets int, min, max float64) (*Histogram, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("stats: buckets must be positive, got %d", buckets)
	}
	if max < min {
		return nil, fmt.Errorf("stats: invalid range [%g, %g]", min, max)
	}
	h := &Histogram{Min: min, Max: max, Counts: make([]int64, buckets)}
	h.AddAll(xs)
	return h, nil
}

// Bucket returns the bucket index x falls into. It is monotone
// non-decreasing in x: compressed-domain fast paths rely on
// Bucket(min) == Bucket(max) implying every value in [min, max] shares
// that bucket, so AddN from a block summary is exact.
func (h *Histogram) Bucket(x float64) int {
	n := len(h.Counts)
	if h.Max <= h.Min {
		return 0
	}
	if x <= h.Min {
		return 0
	}
	if x >= h.Max {
		return n - 1
	}
	frac := (x - h.Min) / (h.Max - h.Min)
	if math.IsNaN(frac) { // Inf/Inf when the range itself overflows
		return 0
	}
	b := int(frac * float64(n))
	if b < 0 {
		return 0
	}
	if b >= n { // guard against floating point edge
		b = n - 1
	}
	return b
}

// Add incorporates a single value.
func (h *Histogram) Add(x float64) { h.Counts[h.Bucket(x)]++ }

// AddAll incorporates every value of xs: Add in a loop, with the range
// and the bucket count read once. Each expression and clamp is Bucket's,
// in Bucket's order, so the counts are the ones the Add loop produces.
// On amd64 with AVX2 the leading multiple of four readings runs through
// addAllAVX2, four to a register, and the rest through addAllLanes, the
// Go lanes that are its oracle and the whole path everywhere else.
func (h *Histogram) AddAll(xs []float64) {
	if len(xs) == 0 {
		return
	}
	counts := h.Counts
	n := len(counts)
	min, max := h.Min, h.Max
	if max <= min {
		counts[0] += int64(len(xs))
		return
	}
	if m := len(xs) &^ 3; useAVX2 && m > 0 && n <= maxKernelBuckets {
		addAllAVX2(&counts[0], &xs[0], m, n, min, max, max-min, float64(n), float64(n-1))
		xs = xs[m:]
	}
	addAllLanes(counts, xs, min, max)
}

// maxKernelBuckets bounds the buckets addAllAVX2 counts: its four
// sub-histograms live in a fixed 2 KiB frame. Wider histograms take the
// Go lanes.
const maxKernelBuckets = 64

// addAllLanes is AddAll's loop for min < max.
func addAllLanes(counts []int64, xs []float64, min, max float64) {
	n := len(counts)
	span, nf := max-min, float64(n)
	for _, x := range xs {
		b := 0
		switch {
		case x <= min:
		case x >= max:
			b = n - 1
		default:
			frac := (x - min) / span
			if math.IsNaN(frac) { // NaN reading, or Inf/Inf when the range itself overflows
				break
			}
			b = int(frac * nf)
			if b < 0 {
				b = 0
			}
			if b >= n { // guard against floating point edge
				b = n - 1
			}
		}
		counts[b]++
	}
}

// AddN incorporates n occurrences of x in one step. Combined with the
// Bucket monotonicity contract it lets a whole stored block be counted
// from its (min, max, count) summary without decoding.
func (h *Histogram) AddN(x float64, n int64) { h.Counts[h.Bucket(x)] += n }

// Total returns the number of samples recorded.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BucketWidth returns the width of each bucket (0 when Min == Max).
func (h *Histogram) BucketWidth() float64 {
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// Edges returns the len(Counts)+1 bucket boundaries.
func (h *Histogram) Edges() []float64 {
	n := len(h.Counts)
	edges := make([]float64, n+1)
	w := h.BucketWidth()
	for i := 0; i <= n; i++ {
		edges[i] = h.Min + float64(float64(i)*w)
	}
	edges[n] = h.Max // avoid accumulated rounding
	return edges
}

// Merge adds the counts of o into h. The histograms must have identical
// range and bucket count.
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.Counts) != len(o.Counts) || !ExactEqual(h.Min, o.Min) || !ExactEqual(h.Max, o.Max) {
		return fmt.Errorf("stats: cannot merge histograms with different shapes")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	return nil
}

// Mode returns the index of the most populated bucket (lowest index wins
// ties) and its count.
func (h *Histogram) Mode() (bucket int, count int64) {
	for i, c := range h.Counts {
		if c > count {
			bucket, count = i, c
		}
	}
	return bucket, count
}

// Entropy returns the Shannon entropy (nats) of the bucket distribution,
// a convenient single-number summary of consumption variability.
func (h *Histogram) Entropy() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var e float64
	for _, c := range h.Counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(t)
		e -= float64(p * math.Log(p))
	}
	return e
}
