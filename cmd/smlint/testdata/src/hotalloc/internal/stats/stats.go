// Fixture for the hotalloc analyzer: internal/stats is a kernel
// package, so every loop is held to the no-per-iteration-allocation
// standard.
package stats

import "fmt"

func describe(xs []float64) []string {
	out := []string{}
	for _, x := range xs {
		s := fmt.Sprintf("%0.2f", x) // want "fmt.Sprintf allocates on every iteration"
		out = append(out, s)         // want "append to out grows an un-capped slice"
	}
	return out
}

// Pre-sized appends are fine.
func describeCapped(xs []float64) []string {
	out := make([]string, 0, len(xs))
	for range xs {
		out = append(out, "x")
	}
	return out
}

// fmt.Errorf in a return statement runs once on the way out, not once
// per iteration: exempt.
func sum(xs []float64) (float64, error) {
	var total float64
	for _, x := range xs {
		if x < 0 {
			return 0, fmt.Errorf("negative reading %v", x)
		}
		total += x
	}
	return total, nil
}

func box(xs []float64) any {
	var last any
	for _, x := range xs {
		last = x // want "storing a concrete float64 into an interface boxes it"
	}
	return last
}

func closures(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		add := func(v float64) { total += v } // want "closure allocated on every iteration"
		add(x)
	}
	return total
}

// The T1 selection kernel needs no entry in hotFuncs: it lives in
// internal/stats, where every function is policed.
func SelectQuantilePair(xs []float64, qLo, qHi float64) (lo, hi float64) {
	var ranks []int
	for _, q := range []float64{qLo, qHi} {
		ranks = append(ranks, int(q*float64(len(xs)-1))) // want "append to ranks grows an un-capped slice"
	}
	return xs[ranks[0]], xs[ranks[1]]
}

// Histogram.AddAll is the one bucket-counting loop (named in hotFuncs as
// well as covered by the package rule): a closure per reading is flagged.
type Histogram struct {
	Min, Max float64
	Counts   []int64
}

func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		bucket := func() int { return int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts))) } // want "closure allocated on every iteration"
		h.Counts[bucket()]++
	}
}
