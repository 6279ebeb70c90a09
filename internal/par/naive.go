package par

import (
	"fmt"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// computeNaive is PAR the obvious way, and the kernel this package ran
// before it had a Plan: per hour, gather a design matrix row by row at
// stride 24, hand it to stats.Regress (and again without the temperature
// column when that is singular), then fit and average the profile in
// three more passes. It allocates some two hundred times per consumer.
// It is the oracle for Plan.Compute (the bit-for-bit property test and
// the fuzz target) and the baseline of BenchmarkPARNaive; temp must not
// be nil.
func computeNaive(s *timeseries.Series, temp *timeseries.Temperature, p int) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("par: order must be >= 1, got %d", p)
	}
	if len(s.Readings) != len(temp.Values) {
		return nil, fmt.Errorf("par: consumer %d has %d readings but %d temperatures",
			s.ID, len(s.Readings), len(temp.Values))
	}
	if len(s.Readings)%timeseries.HoursPerDay != 0 {
		return nil, fmt.Errorf("par: consumer %d: %w", s.ID, timeseries.ErrBadLength)
	}
	days := s.Days()
	// We need more observations (days - p) than regressors (p + 1).
	if days-p <= p+1 {
		return nil, fmt.Errorf("%w: consumer %d has %d days, order %d", ErrTooShort, s.ID, days, p)
	}

	res := &Result{ID: s.ID}
	nObs := days - p
	X := make([][]float64, nObs)
	y := make([]float64, nObs)
	regressors := make([]float64, nObs*(p+1))
	// The per-hour temperature and consumption columns of the profile
	// fit, reused across all 24 hours.
	ct := make([]float64, days)
	cc := make([]float64, days)

	for h := 0; h < timeseries.HoursPerDay; h++ {
		for d := p; d < days; d++ {
			i := d - p
			row := regressors[i*(p+1) : (i+1)*(p+1)]
			for lag := 1; lag <= p; lag++ {
				row[lag-1] = s.At(d-lag, h)
			}
			row[p] = temp.Values[d*timeseries.HoursPerDay+h]
			X[i] = row
			y[i] = s.At(d, h)
		}
		hm := fitHour(X, y, p)
		res.Hours[h] = hm

		// Temperature-independent load averaged over all days, using a
		// dedicated consumption-on-temperature slope for this hour (see
		// the package comment for why the AR model's coefficient is not
		// used here).
		for d := 0; d < days; d++ {
			ct[d] = temp.Values[d*timeseries.HoursPerDay+h]
			cc[d] = s.At(d, h)
		}
		var slope float64
		if line, err := stats.LinearFit(ct, cc); err == nil {
			slope = line.Slope
		}
		var m stats.Moments
		for d := 0; d < days; d++ {
			m.Add(cc[d] - float64(slope*ct[d]))
		}
		res.Profile[h] = m.Mean()
	}
	return res, nil
}

func fitHour(X [][]float64, y []float64, p int) HourModel {
	model, err := stats.Regress(X, y)
	if err == nil {
		return HourModel{
			ARCoef:    model.Coef[:p],
			TempCoef:  model.Coef[p],
			Intercept: model.Intercept,
			R2:        model.R2,
		}
	}
	// A (near-)constant temperature column makes the full design
	// singular; retry with the AR terms only.
	ar := make([][]float64, len(X))
	for i, row := range X {
		ar[i] = row[:p]
	}
	if model, err = stats.Regress(ar, y); err == nil {
		return HourModel{
			ARCoef:    model.Coef,
			Intercept: model.Intercept,
			R2:        model.R2,
		}
	}
	// Constant consumption as well: degrade to the hour's mean.
	mean, _ := stats.Mean(y)
	return HourModel{
		ARCoef:    make([]float64, p),
		Intercept: mean,
		Fallback:  true,
	}
}
