// Fixture for the hotalloc analyzer's named hot methods: in the
// threeline package the plan's per-consumer path (Plan.Compute and the
// T1 kernel Plan.percentilePoints under it) is policed; building the
// plan, which runs once per run, is not.
package threeline

import "fmt"

type Plan struct {
	perm []int32
	off  []int32
}

// percentilePoints is listed as "Plan.percentilePoints": its loops run
// once per reading and once per bin of every consumer.
func (p *Plan) percentilePoints(readings []float64) []float64 {
	var lows []float64
	for b := range p.off {
		if b < 0 {
			_ = fmt.Sprintf("bin %d", b) // want "fmt.Sprintf allocates on every iteration of this loop"
		}
		lows = append(lows, readings[p.perm[b]]) // want "append to lows grows an un-capped slice inside this loop"
	}
	return lows
}

// Compute is listed as "Plan.Compute".
func (p *Plan) Compute(readings []float64) any {
	var last any
	for _, r := range readings {
		last = r // want "storing a concrete float64 into an interface boxes it"
	}
	return last
}

// NewPlan is not listed: it runs once per temperature year and may
// grow its slices as it goes.
func NewPlan(temps []float64) *Plan {
	p := &Plan{}
	for i := range temps {
		p.perm = append(p.perm, int32(i))
		p.off = append(p.off, int32(len(fmt.Sprintf("%d", i))))
	}
	return p
}
