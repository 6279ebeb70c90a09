// Package threeline implements benchmark task 2 (paper §3.2): the 3-line
// piecewise linear regression model of Birt et al. that captures a
// household's thermal sensitivity.
//
// For one consumer the algorithm:
//
//  1. groups hourly (temperature, consumption) points by temperature value
//     (1 degree C bins) and computes the 10th and 90th percentile of
//     consumption within each bin (phase T1 in the paper's Figure 6);
//  2. fits three least-squares line segments — heating / base / cooling —
//     to each percentile series, choosing the two breakpoints that
//     minimize total squared error (phase T2);
//  3. adjusts the segments so the piecewise model is continuous at the
//     breakpoints (phase T3).
//
// The slopes of the left and right 90th-percentile segments are the
// heating and cooling gradients; the lowest point of the 10th-percentile
// model is the household's base load.
//
// Every consumer of a run is fitted against the same temperature year,
// so phase T1 is split in two. A Plan (plan.go), built once per
// temperature series and Config, owns everything that depends on the
// temperatures alone: the bin of every hour, which bins are populated
// enough to count, a permutation that lists the hours bin by bin, the
// bin centres and their prefix sums. Plan.Compute does the per-consumer
// rest (gather the readings in plan order, select each bin's percentiles
// without sorting it, fit) in buffers the caller lends it through a
// Scratch, and allocates only the Result. Compute and ComputeTimed are
// "build a plan, use it once"; callers with a dataset build one plan and
// keep one Scratch per goroutine.
//
// An hour whose temperature is NaN or +-Inf belongs to no bin (BinIndex
// reports it): the fit is the fit over the series without those hours.
package threeline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Config controls the fit.
type Config struct {
	// BinWidth is the temperature bin width in degrees C. Default 1.
	BinWidth float64
	// LowQ and HighQ are the two percentile levels. Defaults 0.10, 0.90.
	LowQ, HighQ float64
	// MinBinPoints is the minimum number of readings a temperature bin
	// needs before it contributes a percentile point. Default 4.
	MinBinPoints int
	// MinSegmentPoints is the minimum number of percentile points per
	// segment. Default 3.
	MinSegmentPoints int
	// MinOuterSpanFrac is the minimum fraction of the observed
	// temperature range that each outer (heating / cooling) segment must
	// cover, which stops the breakpoint search from parking a breakpoint
	// at the extreme edge of the range and labelling a noisy sliver as
	// the heating or cooling regime. Default 0.2.
	MinOuterSpanFrac float64
}

// DefaultConfig returns the benchmark's fixed parameters.
func DefaultConfig() Config {
	return Config{
		BinWidth: 1, LowQ: 0.10, HighQ: 0.90,
		MinBinPoints: 4, MinSegmentPoints: 3, MinOuterSpanFrac: 0.2,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.BinWidth <= 0 {
		c.BinWidth = d.BinWidth
	}
	if c.LowQ <= 0 || c.LowQ >= 1 {
		c.LowQ = d.LowQ
	}
	if c.HighQ <= 0 || c.HighQ >= 1 {
		c.HighQ = d.HighQ
	}
	if c.MinBinPoints <= 0 {
		c.MinBinPoints = d.MinBinPoints
	}
	if c.MinSegmentPoints < 2 {
		c.MinSegmentPoints = d.MinSegmentPoints
	}
	if c.MinOuterSpanFrac <= 0 || c.MinOuterSpanFrac >= 0.5 {
		c.MinOuterSpanFrac = d.MinOuterSpanFrac
	}
}

// Model is a continuous piecewise-linear model with up to three segments.
// For temperatures below Break1 the Heating line applies; between Break1
// and Break2 the Base line; above Break2 the Cooling line. A degenerate
// fit (too few distinct temperatures) uses one line for all segments.
type Model struct {
	Break1, Break2         float64
	Heating, Base, Cooling stats.Line
	Degenerate             bool
	// SSE is the sum of squared errors of the (pre-adjustment) fit over
	// the percentile points.
	SSE float64
}

// At evaluates the model at temperature t.
func (m *Model) At(t float64) float64 {
	switch {
	case t < m.Break1:
		return m.Heating.At(t)
	case t <= m.Break2:
		return m.Base.At(t)
	default:
		return m.Cooling.At(t)
	}
}

// MinValue returns the lowest value the model attains over [lo, hi]
// (the candidate extrema are the interval ends and the breakpoints).
func (m *Model) MinValue(lo, hi float64) float64 {
	min := math.Inf(1)
	for _, t := range []float64{lo, hi, m.Break1, m.Break2} {
		if t < lo || t > hi {
			continue
		}
		if v := m.At(t); v < min {
			min = v
		}
	}
	return min
}

// Result is the 3-line output for one consumer.
type Result struct {
	ID timeseries.ID
	// High is the model fitted to the 90th percentile points, Low to the
	// 10th percentile points.
	High, Low Model
	// HeatingGradient is the negated slope of the heating segment of the
	// High model (kWh per degree of cooling outside), so larger means more
	// heating sensitivity. CoolingGradient is the slope of the cooling
	// segment. BaseLoad is the lowest point of the Low model (paper §3.2).
	HeatingGradient float64
	CoolingGradient float64
	BaseLoad        float64
	// TempMin and TempMax delimit the observed temperature range.
	TempMin, TempMax float64
}

// Timing records how long each phase took (paper Figure 6: T1 quantiles,
// T2 regression, T3 continuity adjustment).
type Timing struct {
	T1Quantiles  time.Duration
	T2Regression time.Duration
	T3Adjust     time.Duration
}

// Total returns the summed phase durations.
func (t Timing) Total() time.Duration { return t.T1Quantiles + t.T2Regression + t.T3Adjust }

// ErrInsufficientData is returned when a consumer has too few populated
// temperature bins to fit any line.
var ErrInsufficientData = errors.New("threeline: insufficient data")

// Compute fits the 3-line model for one consumer with default parameters.
func Compute(s *timeseries.Series, temp *timeseries.Temperature) (*Result, error) {
	r, _, err := ComputeTimed(s, temp, DefaultConfig())
	return r, err
}

// ComputeTimed fits the 3-line model and reports per-phase timings. It
// builds a Plan for this one call and counts that under T1; a caller
// with more than one series on the same temperatures should build the
// Plan itself.
func ComputeTimed(s *timeseries.Series, temp *timeseries.Temperature, cfg Config) (*Result, Timing, error) {
	start := time.Now()
	p := NewPlan(temp, cfg)
	build := time.Since(start)
	var sc Scratch
	r, tm, err := p.Compute(s, &sc)
	tm.T1Quantiles += build
	return r, tm, err
}

// FitPoints runs phases T2 (segmented least squares) and T3 (continuity
// adjustment) on an already-extracted percentile point set: xs are bin
// centers in ascending order, lows/highs the matching percentile
// values. The planned fit's property test calls it on the naive T1's
// points as its oracle.
func FitPoints(id timeseries.ID, xs, lows, highs []float64, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	res, _, _, err := fitPoints(id, newSegFitter(xs), lows, highs, cfg)
	return res, err
}

// fitPoints is T2 and T3 over the fitter's point set; cfg has its
// defaults filled.
func fitPoints(id timeseries.ID, f *segFitter, lows, highs []float64, cfg Config) (*Result, time.Duration, time.Duration, error) {
	xs := f.x
	if len(xs) < 2 {
		return nil, 0, 0, fmt.Errorf("%w: consumer %d has %d populated temperature bins",
			ErrInsufficientData, id, len(xs))
	}
	start := time.Now()
	high := fitSegmented(f, highs, cfg.MinSegmentPoints, cfg.MinOuterSpanFrac)
	low := fitSegmented(f, lows, cfg.MinSegmentPoints, cfg.MinOuterSpanFrac)
	t2 := time.Since(start)
	start = time.Now()
	high.makeContinuous()
	low.makeContinuous()
	t3 := time.Since(start)
	tmin, tmax := xs[0], xs[len(xs)-1]
	return &Result{
		ID:              id,
		High:            high,
		Low:             low,
		HeatingGradient: -high.Heating.Slope,
		CoolingGradient: high.Cooling.Slope,
		BaseLoad:        low.MinValue(tmin, tmax),
		TempMin:         tmin,
		TempMax:         tmax,
	}, t2, t3, nil
}

// ComputeAll runs the task for every series in the dataset.
func ComputeAll(d *timeseries.Dataset) ([]*Result, error) {
	p := NewPlan(d.Temperature, DefaultConfig())
	var sc Scratch
	out := make([]*Result, 0, len(d.Series))
	for _, s := range d.Series {
		r, _, err := p.Compute(s, &sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// BinIndex returns the temperature bin an hour at temperature t falls
// into for the given bin width, and false when it falls into none: a
// NaN or +-Inf temperature has no bin (converting it to an integer is
// implementation-defined in Go: amd64 answers MinInt64, arm64 0), so
// such an hour takes no part in the fit. Every binning in the
// repository goes through here.
func BinIndex(t, binWidth float64) (int, bool) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, false
	}
	return int(math.Floor(t / binWidth)), true
}

// binCentre is the x of the percentile point of bin k.
func binCentre(k int, binWidth float64) float64 {
	return (float64(k) + 0.5) * binWidth
}

// PointsFromSortedBins extracts the phase-T1 percentile point set from
// temperature bins whose consumption values are already sorted
// ascending, keyed by BinIndex. It is the last step of the naive T1
// (naive.go); the output is identical to the planned path's for the
// same readings.
func PointsFromSortedBins(bins map[int][]float64, cfg Config) (xs, lows, highs []float64) {
	cfg.fillDefaults()
	keys := make([]int, 0, len(bins))
	for k, v := range bins {
		if len(v) >= cfg.MinBinPoints {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	xs = make([]float64, 0, len(keys))
	lows = make([]float64, 0, len(keys))
	highs = make([]float64, 0, len(keys))
	for _, k := range keys {
		v := bins[k]
		lo, _ := stats.QuantileSorted(v, cfg.LowQ)
		hi, _ := stats.QuantileSorted(v, cfg.HighQ)
		xs = append(xs, binCentre(k, cfg.BinWidth))
		lows = append(lows, lo)
		highs = append(highs, hi)
	}
	return xs, lows, highs
}

// segFitter computes least-squares fits and SSE over index ranges of a
// fixed (x, y) point set in O(1) per range using prefix sums. The x side
// is fixed when the fitter is made (a Plan shares one across all its
// consumers); setY points it at a y curve.
type segFitter struct {
	x            []float64
	sx, sxx      []float64 // prefix sums over x, len n+1
	sy, sxy, syy []float64 // prefix sums involving y, len n+1, filled by setY
	// The right segment [j, n) of every j, fitted once per search
	// (searchBreaks), len n+1.
	right    []stats.Line
	rightSSE []float64
}

// newSegFitter allocates a fitter over the points' x values.
func newSegFitter(x []float64) *segFitter {
	n := len(x)
	f := &segFitter{
		x:        x,
		sy:       make([]float64, n+1),
		sxy:      make([]float64, n+1),
		syy:      make([]float64, n+1),
		right:    make([]stats.Line, n+1),
		rightSSE: make([]float64, n+1),
	}
	f.sx, f.sxx = xPrefixSums(x)
	return f
}

// xPrefixSums returns the prefix sums of x and x*x.
func xPrefixSums(x []float64) (sx, sxx []float64) {
	sx = make([]float64, len(x)+1)
	sxx = make([]float64, len(x)+1)
	for i, v := range x {
		sx[i+1] = sx[i] + v
		sxx[i+1] = sxx[i] + float64(v*v)
	}
	return sx, sxx
}

// setY makes y (one value per x) the curve that fit reads.
func (f *segFitter) setY(y []float64) {
	x, sy, sxy, syy := f.x[:len(y)], f.sy[:len(y)+1], f.sxy[:len(y)+1], f.syy[:len(y)+1]
	sy[0], sxy[0], syy[0] = 0, 0, 0
	for i, v := range y {
		sy[i+1] = sy[i] + v
		sxy[i+1] = sxy[i] + float64(x[i]*v)
		syy[i+1] = syy[i] + float64(v*v)
	}
}

// fit returns the OLS line over points [lo, hi) and its SSE. If the x
// values in the range are (nearly) constant it returns a horizontal line
// through the mean.
func (f *segFitter) fit(lo, hi int) (stats.Line, float64) {
	n := float64(hi - lo)
	sx := f.sx[hi] - f.sx[lo]
	sy := f.sy[hi] - f.sy[lo]
	sxx := f.sxx[hi] - f.sxx[lo]
	sxy := f.sxy[hi] - f.sxy[lo]
	syy := f.syy[hi] - f.syy[lo]
	den := float64(n*sxx) - float64(sx*sx)
	if den <= 1e-9*math.Abs(n*sxx) || den <= 0 {
		mean := sy / n
		sse := syy - float64(2*mean*sy) + float64(n*mean*mean)
		if sse < 0 {
			sse = 0
		}
		return stats.Line{Slope: 0, Intercept: mean}, sse
	}
	slope := (float64(n*sxy) - float64(sx*sy)) / den
	icept := (sy - float64(slope*sx)) / n
	// SSE = sum (y - a - b x)^2 expanded over the prefix sums.
	sse := syy + float64(n*icept*icept) + float64(slope*slope*sxx) -
		float64(2*icept*sy) - float64(2*slope*sxy) + float64(2*slope*icept*sx)
	if sse < 0 {
		sse = 0
	}
	return stats.Line{Slope: slope, Intercept: icept}, sse
}

// fitSegmented finds the two breakpoints minimizing the total SSE of
// three per-segment OLS fits, requiring minSeg points per segment. When
// the point set is too small for three segments it falls back to a single
// line (degenerate model).
func fitSegmented(f *segFitter, ys []float64, minSeg int, minSpanFrac float64) Model {
	xs := f.x
	n := len(xs)
	f.setY(ys)
	if n < 3*minSeg {
		line, sse := f.fit(0, n)
		return Model{
			Break1: math.Inf(-1), Break2: math.Inf(1),
			Heating: line, Base: line, Cooling: line,
			Degenerate: true, SSE: sse,
		}
	}
	minSpan := minSpanFrac * (xs[n-1] - xs[0])
	bestSSE, bestI, bestJ, bestLines := searchBreaks(f, xs, n, minSeg, minSpan)
	if math.IsInf(bestSSE, 1) && minSpan > 0 {
		// The span constraint left no candidates (e.g. points clustered at
		// the range edges); retry unconstrained.
		bestSSE, bestI, bestJ, bestLines = searchBreaks(f, xs, n, minSeg, 0)
	}
	// Breakpoints sit halfway between the neighbouring bin centers.
	b1 := (xs[bestI-1] + xs[bestI]) / 2
	b2 := (xs[bestJ-1] + xs[bestJ]) / 2
	return Model{
		Break1: b1, Break2: b2,
		Heating: bestLines[0], Base: bestLines[1], Cooling: bestLines[2],
		SSE: bestSSE,
	}
}

// searchBreaks scans all breakpoint pairs (i, j) splitting the points
// into [0,i), [i,j), [j,n), subject to the per-segment point minimum and
// the outer-segment span minimum, and returns the SSE-optimal choice.
// The right segment depends on j alone, so it is fitted once per j,
// before the scan.
func searchBreaks(f *segFitter, xs []float64, n, minSeg int, minSpan float64) (float64, int, int, [3]stats.Line) {
	for j := 2 * minSeg; j+minSeg <= n; j++ {
		f.right[j], f.rightSSE[j] = f.fit(j, n)
	}
	bestSSE := math.Inf(1)
	bestI, bestJ := minSeg, 2*minSeg
	var bestLines [3]stats.Line
	for i := minSeg; i+2*minSeg <= n; i++ {
		if xs[i-1]-xs[0] < minSpan {
			continue
		}
		l1, s1 := f.fit(0, i)
		for j := i + minSeg; j+minSeg <= n; j++ {
			if xs[n-1]-xs[j] < minSpan {
				break // j only grows, span only shrinks
			}
			l2, s2 := f.fit(i, j)
			l3, s3 := f.right[j], f.rightSSE[j]
			if t := s1 + s2 + s3; t < bestSSE {
				bestSSE = t
				bestI, bestJ = i, j
				bestLines = [3]stats.Line{l1, l2, l3}
			}
		}
	}
	return bestSSE, bestI, bestJ, bestLines
}

// makeContinuous adjusts the three segments so the model is continuous:
// the junction value at each breakpoint is the mean of the two adjoining
// segment predictions; the base segment is replaced by the chord through
// the junctions and the outer segments keep their slopes but are shifted
// to pass through the junctions (paper §3.2, "the algorithm ensures that
// the three lines are not discontinuous").
func (m *Model) makeContinuous() {
	if m.Degenerate {
		return
	}
	v1 := float64((m.Heating.At(m.Break1) + m.Base.At(m.Break1)) / 2)
	v2 := float64((m.Base.At(m.Break2) + m.Cooling.At(m.Break2)) / 2)
	if !stats.ExactEqual(m.Break2, m.Break1) {
		slope := (v2 - v1) / (m.Break2 - m.Break1)
		m.Base = stats.Line{Slope: slope, Intercept: v1 - float64(slope*m.Break1)}
	}
	m.Heating.Intercept = v1 - float64(m.Heating.Slope*m.Break1)
	m.Cooling.Intercept = v2 - float64(m.Cooling.Slope*m.Break2)
}
