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
	hour  [hoursPerDay]hourPlan
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
	// The normal equations of the four hours of the group being fitted,
	// over the regressors lag 1..order, temperature, one: lane l's
	// (order+2)² moment matrix (upper triangle only) is gram[l·d²:] and
	// its moments against the consumption rhs[l·d:], d = order+2. sys
	// and x are the copy the solver eliminates.
	gram, rhs, sys, x []float64
	// coef holds the group's auto-regressive coefficients as rSquared
	// reads them, lag j+1 of lane l at coef[4j+l], and model the rest.
	coef  []float64
	model laneModel
}

// NewPlan sums the temperature series once for every consumer that will
// be fitted against it with auto-regressive order order. A nil series is
// an empty one: every consumer is then refused for its length, as an
// error and not a nil dereference.
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
	n := float64(days)
	for h := range p.hour {
		hp := &p.hour[h]
		var sx, sxx float64
		for d := 0; d < days; d++ {
			v := p.temps[d*hoursPerDay+h]
			sx += v
			sxx += float64(v * v)
		}
		den := float64(n*sxx) - float64(sx*sx)
		hp.sx, hp.den = sx, den
		hp.singular = stats.IsZero(den) || math.Abs(den) < 1e-12*math.Abs(n*sxx)
		for d := order; d < days; d++ {
			v := p.temps[d*hoursPerDay+h]
			hp.st += v
			hp.stt += float64(v * v)
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
// plan's temperatures, working in sc. It fits the hours of the day four
// at a time, straight from the day-major series (kernel.go): per group
// it accumulates the lanes' normal equations, solves each hour's, and
// measures the four R² in one pass; the 24 profile means then run side
// by side over the days. Every sum adds its terms in the order the
// textbook kernel does (computeNaive), so the results are the same bit
// for bit. It allocates the Result and the array behind its
// auto-regressive coefficients.
func (p *Plan) Compute(s *timeseries.Series, sc *Scratch) (*Result, error) {
	if err := p.refusal(s.ID, len(s.Readings)); err != nil {
		return nil, err
	}
	order, days := p.order, p.days
	sc.size(order)

	res := &Result{ID: s.ID}
	ar := make([]float64, hoursPerDay*order)
	var slope [hoursPerDay]float64
	for h0 := 0; h0 < hoursPerDay; h0 += lanes {
		c, t := s.Readings[h0:], p.temps[h0:]
		hp := p.hour[h0 : h0+lanes]
		sy, sty := sc.accumulate(c, t, hp, order, days)
		sc.fit(res.Hours[h0:h0+lanes], c, t, ar[h0*order:(h0+lanes)*order], order, days-order)

		// The slope of consumption on temperature alone, for the profile
		// (see the package comment for why it is not the model's). A
		// singular line keeps slope 0, which still meets every
		// temperature below: 0 times a non-finite one is NaN.
		for l := range hp {
			if !hp[l].singular {
				slope[h0+l] = (float64(float64(days)*sty[l]) - float64(hp[l].sx*sy[l])) / hp[l].den
			}
		}
	}
	profile(&res.Profile, s.Readings, p.temps, &slope, days)
	return res, nil
}

// size gives the buffers the lengths an order needs.
func (sc *Scratch) size(order int) {
	d := order + 2
	sc.gram, sc.rhs = grown(sc.gram, lanes*d*d), grown(sc.rhs, lanes*d)
	sc.sys, sc.x = grown(sc.sys, d*d), grown(sc.x, d)
	sc.coef = grown(sc.coef, lanes*order)
}

// grown returns buf with length n, reallocated only if it is too small.
func grown(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// accumulate fills the lanes of sc.gram and sc.rhs for the group of
// hours whose consumption c and temperatures t start at its first hour
// of day 0, and returns each lane's Σc and Σt·c over every day, the
// consumer's side of the profile's line.
func (sc *Scratch) accumulate(c, t []float64, hp []hourPlan, order, days int) (syAll, styAll [lanes]float64) {
	n := days - order
	d := order + 2
	iT, i1 := order, order+1 // the temperature and the constant regressor
	y, ty := c[order*hoursPerDay:], t[order*hoursPerDay:]

	// The profile's sums start at day 0, the regression's at the first
	// observed day; from there one product feeds both.
	var ys [4 * lanes]float64
	ySums(&ys, c, t, order, days)
	for l := range lanes {
		g, rhs := sc.gram[l*d*d:], sc.rhs[l*d:]
		g[iT*d+iT], g[iT*d+i1], g[i1*d+i1] = hp[l].stt, hp[l].st, float64(n)
		rhs[iT], rhs[i1] = ys[3*lanes+l], ys[2*lanes+l]
		syAll[l], styAll[l] = ys[l], ys[lanes+l]
	}

	// Lag j+1 against one, the temperature, the consumption and the lags
	// from itself on, three of those to a pass. Where the order has no
	// such lag the pass runs over x again and the sum is dropped.
	var sums [6 * lanes]float64
	for j := 0; j < order; j++ {
		x := lagSeries(c, order, j)
		for k := j; k < order; k += 3 {
			a, b := x, x
			if k+1 < order {
				a = lagSeries(c, order, k+1)
			}
			if k+2 < order {
				b = lagSeries(c, order, k+2)
			}
			lagSums(&sums, x, y, ty, lagSeries(c, order, k), a, b, n)
			for l := range lanes {
				g, rhs := sc.gram[l*d*d:], sc.rhs[l*d:]
				if k == j {
					g[j*d+i1], g[j*d+iT], rhs[j] = sums[l], sums[2*lanes+l], sums[lanes+l]
				}
				g[j*d+k] = sums[3*lanes+l]
				if k+1 < order {
					g[j*d+k+1] = sums[4*lanes+l]
				}
				if k+2 < order {
					g[j*d+k+2] = sums[5*lanes+l]
				}
			}
		}
	}
	return syAll, styAll
}

// lagSeries returns, from the first observed day on, the group's
// consumption j+1 days before, as a view of its series c.
func lagSeries(c []float64, order, j int) []float64 {
	return c[(order-1-j)*hoursPerDay:]
}

// fit solves the normal equations of each lane in sc.gram and sc.rhs,
// as stats.Regress would over the design matrix: the full model;
// without the temperature when that is singular (a near-constant
// temperature column), which is the same sums less one row and column;
// the hour's mean when the consumption is constant as well. Then one
// rSquared pass measures every lane that has a model, the retry's
// masked of its temperature term. c and t are the group's consumption
// and temperatures from day 0, n the number of observed days; the
// lanes' auto-regressive coefficients land in ar, which arrives zeroed,
// and their models in hours.
func (sc *Scratch) fit(hours []HourModel, c, t, ar []float64, order, n int) {
	d := order + 2
	iT, i1 := order, order+1
	m := &sc.model
	measured := false
	for l := range lanes {
		gram, rhs := sc.gram[l*d*d:(l+1)*d*d], sc.rhs[l*d:(l+1)*d]
		coef := ar[l*order : (l+1)*order : (l+1)*order]
		ybar := rhs[i1] / float64(n)
		if x := sc.solve(gram, rhs, -1); x != nil {
			copy(coef, x)
			hours[l] = HourModel{ARCoef: coef, TempCoef: x[iT], Intercept: x[i1]}
			m.k[l], m.b[l], m.mask[l] = x[i1], x[iT], ^uint64(0)
		} else if x := sc.solve(gram, rhs, iT); x != nil {
			copy(coef, x)
			hours[l] = HourModel{ARCoef: coef, Intercept: x[order]}
			m.k[l], m.b[l], m.mask[l] = x[order], 0, 0
		} else {
			hours[l] = HourModel{ARCoef: coef, Intercept: ybar, Fallback: true}
		}
		m.ybar[l] = ybar
		for j, a := range coef {
			sc.coef[lanes*j+l] = a
		}
		measured = measured || !hours[l].Fallback
	}
	if !measured {
		return
	}
	var ss [2 * lanes]float64
	rSquared(&ss, c, c[order*hoursPerDay:], t[order*hoursPerDay:], sc.coef, m, order, n)
	for l := range lanes {
		if hours[l].Fallback {
			continue
		}
		if ssTot := ss[lanes+l]; ssTot > 0 {
			hours[l].R2 = 1 - ss[l]/ssTot
		} else {
			hours[l].R2 = 1
		}
	}
}

// solve copies one lane's d x d normal equations, less the regressor
// skip when that is not negative, into sc.sys and sc.x, mirrors the
// upper triangle and solves them there. It returns the solution, or nil
// when the system is singular.
func (sc *Scratch) solve(gram, rhs []float64, skip int) []float64 {
	d := len(rhs)
	m := 0
	for j := 0; j < d; j++ {
		if j == skip {
			continue
		}
		sc.x[m] = rhs[j]
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
			v := gram[j*d+k]
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
