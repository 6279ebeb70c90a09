package par

import (
	"fmt"
	"math"
	"slices"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

const hoursPerDay = timeseries.HoursPerDay

// Plan is the part of PAR that depends only on the temperature series
// and the order, computed once and shared by every consumer fitted
// against those temperatures. It is immutable after NewPlan and safe for
// concurrent use; each goroutine brings its own Scratch. The plan keeps
// reading the temperature series it was built from, which must not
// change while the plan is in use.
type Plan struct {
	order int
	temps []float64 // the series as given, day-major
	days  int       // 0 when no consumer can be fitted; Compute says why

	// cols is temps hour-major: hour h of day d is cols[h*days+d], so
	// that the days of one hour of the day are contiguous.
	cols []float64
	hour [hoursPerDay]hourPlan
}

// hourPlan is what one hour of the day needs of the temperature alone.
type hourPlan struct {
	// st and stt are ΣT and ΣT² over the observed days (order..days-1),
	// the temperature-only entries of the hour's normal equations.
	st, stt float64
	// sx, den and singular are the x side of the profile's line through
	// (temperature, consumption) over every day, as stats.LinearFit
	// computes it.
	sx, den  float64
	singular bool
}

// Scratch holds the buffers Plan.Compute works in, so that a loop over
// consumers allocates them once. The zero value is ready to use; it is
// not safe for concurrent use.
type Scratch struct {
	cols []float64 // the consumer's readings, hour-major like Plan.cols

	// The normal equations of the hour being fitted, over the regressors
	// lag 1..order, temperature, one: gram is their (order+2)² moment
	// matrix, upper triangle only, and rhs their moments against the
	// consumption. sys and x are the copy the solver eliminates.
	gram, rhs, sys, x []float64
}

// NewPlan transposes and sums the temperature series once for every
// consumer that will be fitted against it with auto-regressive order
// order. A nil series is an empty one: every consumer is then refused
// for its length, as an error and not a nil dereference.
func NewPlan(temp *timeseries.Temperature, order int) *Plan {
	p := &Plan{order: order}
	if temp != nil {
		p.temps = temp.Values
	}
	// A consumer as long as the temperatures is refused only for what the
	// plan itself lacks; then there is nothing to prepare.
	if p.refusal(0, len(p.temps)) != nil {
		return p
	}
	days := len(p.temps) / hoursPerDay
	p.days = days
	p.cols = make([]float64, len(p.temps))
	transpose(p.cols, p.temps, days)
	n := float64(days)
	for h := range p.hour {
		t := p.cols[h*days : (h+1)*days]
		hp := &p.hour[h]
		var sx, sxx float64
		for _, v := range t {
			sx += v
			sxx += v * v
		}
		den := n*sxx - sx*sx
		hp.sx, hp.den = sx, den
		hp.singular = stats.IsZero(den) || math.Abs(den) < 1e-12*math.Abs(n*sxx)
		for _, v := range t[order:] {
			hp.st += v
			hp.stt += v * v
		}
	}
	return p
}

// refusal returns the error for a consumer with that many readings, or
// nil when the plan can fit it.
func (p *Plan) refusal(id timeseries.ID, readings int) error {
	if p.order < 1 {
		return fmt.Errorf("par: order must be >= 1, got %d", p.order)
	}
	if readings != len(p.temps) {
		return fmt.Errorf("par: consumer %d has %d readings but %d temperatures",
			id, readings, len(p.temps))
	}
	if readings%hoursPerDay != 0 {
		return fmt.Errorf("par: consumer %d: %w", id, timeseries.ErrBadLength)
	}
	// We need more observations (days - order) than regressors (order + 1).
	if days := readings / hoursPerDay; days-p.order <= p.order+1 {
		return fmt.Errorf("%w: consumer %d has %d days, order %d", ErrTooShort, id, days, p.order)
	}
	return nil
}

// Compute runs PAR for one consumer whose readings align with the
// plan's temperatures, working in sc. Per hour of the day it
// accumulates the normal equations of the regression in registers,
// solves them, and measures R² in one pass; the 24 profile means then
// run side by side over the days. Every sum adds its terms in the order
// the textbook kernel does (computeNaive), so the results are the same
// bit for bit. It allocates the Result and the array behind its
// auto-regressive coefficients.
func (p *Plan) Compute(s *timeseries.Series, sc *Scratch) (*Result, error) {
	if err := p.refusal(s.ID, len(s.Readings)); err != nil {
		return nil, err
	}
	order, days := p.order, p.days
	sc.size(order, len(s.Readings))
	transpose(sc.cols, s.Readings, days)

	res := &Result{ID: s.ID}
	ar := make([]float64, hoursPerDay*order)
	var slope [hoursPerDay]float64
	for h := range res.Hours {
		c := sc.cols[h*days : (h+1)*days]
		t := p.cols[h*days : (h+1)*days]
		hp := &p.hour[h]
		sy, sty := sc.accumulate(c, t, hp, order)
		res.Hours[h] = sc.fit(c, t[order:], ar[h*order:(h+1)*order:(h+1)*order])

		// The slope of consumption on temperature alone, for the profile
		// (see the package comment for why it is not the model's). A
		// singular line keeps slope 0, which still meets every
		// temperature below: 0 times a non-finite one is NaN.
		if !hp.singular {
			slope[h] = (float64(days)*sty - hp.sx*sy) / hp.den
		}
	}
	profile(&res.Profile, s.Readings, p.temps, &slope)
	return res, nil
}

// size gives the buffers the lengths an order and a series need.
func (sc *Scratch) size(order, readings int) {
	d := order + 2
	sc.cols = grown(sc.cols, readings)
	sc.gram, sc.sys = grown(sc.gram, d*d), grown(sc.sys, d*d)
	sc.rhs, sc.x = grown(sc.rhs, d), grown(sc.x, d)
}

// grown returns buf with length n, reallocated only if it is too small.
func grown(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// transpose copies a day-major series of whole days into hour-major
// columns.
func transpose(cols, series []float64, days int) {
	for d := 0; d < days; d++ {
		row := (*[hoursPerDay]float64)(series[d*hoursPerDay:])
		for h, v := range row {
			cols[h*days+d] = v
		}
	}
}

// accumulate fills sc.gram and sc.rhs for one hour of the day from the
// consumer's column c and the temperature column t of that hour, and
// returns Σc and Σt·c over every day, the consumer's side of the
// profile's line.
func (sc *Scratch) accumulate(c, t []float64, hp *hourPlan, order int) (syAll, styAll float64) {
	n := len(c) - order
	d := order + 2
	iT, i1 := order, order+1 // the temperature and the constant regressor
	g, rhs := sc.gram, sc.rhs
	y, ty := c[order:], t[order:][:n]

	// The profile's sums start at day 0, the regression's at the first
	// observed day; from there one product feeds both.
	for i, v := range c[:order] {
		syAll += v
		styAll += t[i] * v
	}
	var sy, sty float64
	for i, v := range y {
		tv := ty[i] * v
		syAll += v
		styAll += tv
		sy += v
		sty += tv
	}
	g[iT*d+iT], g[iT*d+i1], g[i1*d+i1] = hp.stt, hp.st, float64(n)
	rhs[iT], rhs[i1] = sty, sy

	// Lag j+1 against one, the temperature, the consumption and the lags
	// from itself on, three of those to a pass. Where the order has no
	// such lag the pass runs over x again and the sum is dropped.
	for j := 0; j < order; j++ {
		x := lagColumn(c, order, j)
		for k := j; k < order; k += 3 {
			a, b := x, x
			if k+1 < order {
				a = lagColumn(c, order, k+1)
			}
			if k+2 < order {
				b = lagColumn(c, order, k+2)
			}
			s, sxy, sxt, s0, s1, s2 := lagSums(x, y, ty, lagColumn(c, order, k), a, b)
			if k == j {
				g[j*d+i1], g[j*d+iT], rhs[j] = s, sxt, sxy
			}
			g[j*d+k] = s0
			if k+1 < order {
				g[j*d+k+1] = s1
			}
			if k+2 < order {
				g[j*d+k+2] = s2
			}
		}
	}
	return syAll, styAll
}

// lagColumn returns, for every observed day, the consumption j+1 days
// before it, as a view of the hour's column c.
func lagColumn(c []float64, order, j int) []float64 {
	return c[order-1-j : len(c)-1-j]
}

// lagSums returns Σx, Σx·y, Σx·t, Σx·a, Σx·b and Σx·c over slices of one
// length, each sum adding its terms in index order. Six chains are what
// the default order needs of a lag at most, and they fit the registers.
func lagSums(x, y, t, a, b, c []float64) (s, sy, st, sa, sb, sc float64) {
	n := len(x)
	y, t, a, b, c = y[:n], t[:n], a[:n], b[:n], c[:n]
	for i, v := range x {
		s += v
		sy += v * y[i]
		st += v * t[i]
		sa += v * a[i]
		sb += v * b[i]
		sc += v * c[i]
	}
	return s, sy, st, sa, sb, sc
}

// fit solves the hour's normal equations from sc.gram and sc.rhs, as
// stats.Regress would over the design matrix: the full model; without
// the temperature when that is singular (a near-constant temperature
// column), which is the same sums less one row and column; the hour's
// mean when the consumption is constant as well. c is the consumer's
// column of the hour, t the temperatures of the observed days; the
// auto-regressive coefficients land in coef, which arrives zeroed.
func (sc *Scratch) fit(c, t, coef []float64) HourModel {
	order := len(coef)
	iT, i1 := order, order+1
	ybar := sc.rhs[i1] / float64(len(t))
	if x := sc.solve(order+2, -1); x != nil {
		copy(coef, x)
		return HourModel{
			ARCoef:    coef,
			TempCoef:  x[iT],
			Intercept: x[i1],
			R2:        rSquared(c, t, coef, x[iT], true, x[i1], ybar),
		}
	}
	if x := sc.solve(order+2, iT); x != nil {
		copy(coef, x)
		return HourModel{
			ARCoef:    coef,
			Intercept: x[order],
			R2:        rSquared(c, t, coef, 0, false, x[order], ybar),
		}
	}
	return HourModel{ARCoef: coef, Intercept: ybar, Fallback: true}
}

// solve copies the d x d normal equations, less the regressor skip when
// that is not negative, into sc.sys and sc.x, mirrors the upper
// triangle and solves them there. It returns the solution, or nil when
// the system is singular.
func (sc *Scratch) solve(d, skip int) []float64 {
	m := 0
	for j := 0; j < d; j++ {
		if j == skip {
			continue
		}
		sc.x[m] = sc.rhs[j]
		m++
	}
	r := 0
	for j := 0; j < d; j++ {
		if j == skip {
			continue
		}
		q := r
		for k := j; k < d; k++ {
			if k == skip {
				continue
			}
			v := sc.gram[j*d+k]
			sc.sys[r*m+q], sc.sys[q*m+r] = v, v
			q++
		}
		r++
	}
	if _, _, ok := stats.SolveInPlace(sc.sys[:m*m], sc.x[:m]); !ok {
		return nil
	}
	return sc.x[:m]
}

// rSquared is the in-sample coefficient of determination of the model
// k + Σ ar[j]·lag(j+1) (+ b·t when withT), each prediction summed in
// that order, over the observed days of the column c.
func rSquared(c, t, ar []float64, b float64, withT bool, k, ybar float64) float64 {
	order := len(ar)
	var ssRes, ssTot float64
	for i, y := range c[order:] {
		pred := k
		lags := c[i : i+order] // lag j+1 is lags[order-1-j]
		for j, a := range ar {
			pred += a * lags[order-1-j]
		}
		if withT {
			pred += b * t[i]
		}
		r := y - pred
		ssRes += r * r
		dy := y - ybar
		ssTot += dy * dy
	}
	if ssTot > 0 {
		return 1 - ssRes/ssTot
	}
	return 1
}

// profile averages the temperature-independent load reading - slope·T
// of each hour of the day over the days, as 24 running means
// (stats.Moments' update) that advance together one day at a time: the
// means of one hour form a chain of divisions, those of different hours
// do not wait for one another.
func profile(mean *[hoursPerDay]float64, readings, temps []float64, slope *[hoursPerDay]float64) {
	for d := 0; (d+1)*hoursPerDay <= len(readings); d++ {
		row := (*[hoursPerDay]float64)(readings[d*hoursPerDay:])
		trow := (*[hoursPerDay]float64)(temps[d*hoursPerDay:])
		n := float64(d + 1)
		for h := range mean {
			x := row[h] - slope[h]*trow[h]
			mean[h] += (x - mean[h]) / n
		}
	}
}
