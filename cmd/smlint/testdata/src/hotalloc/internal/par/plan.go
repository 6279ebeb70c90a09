// Fixture for the hotalloc analyzer's named hot functions: in the par
// package the plan's per-consumer path (Plan.Compute and the helpers
// that hold its per-reading loops, methods and plain functions alike)
// is policed; building the plan, which runs once per run, is not.
package par

import "fmt"

type Plan struct {
	cols []float64
}

type Scratch struct {
	cols []float64
}

// Compute is listed as "Plan.Compute".
func (p *Plan) Compute(readings []float64, sc *Scratch) any {
	var last any
	for _, r := range readings {
		last = r // want "storing a concrete float64 into an interface boxes it"
	}
	return last
}

// accumulate is listed as "Scratch.accumulate": its loops run once per
// reading of every consumer.
func (sc *Scratch) accumulate(c []float64) []float64 {
	var sums []float64
	for _, v := range c {
		sums = append(sums, v) // want "append to sums grows an un-capped slice inside this loop"
	}
	return sums
}

// lagSums is listed by its bare name: a plain function.
func lagSums(x []float64) (s float64, err error) {
	for i, v := range x {
		if v < 0 {
			err = fmt.Errorf("reading %d is negative", i) // want "fmt.Errorf allocates on every iteration of this loop"
		}
		s += v
	}
	return s, err
}

// NewPlan is not listed: it runs once per temperature year and may
// grow its slices as it goes.
func NewPlan(temps []float64) *Plan {
	p := &Plan{}
	for i, t := range temps {
		p.cols = append(p.cols, t+float64(len(fmt.Sprintf("%d", i))))
	}
	return p
}
