// Package par implements benchmark task 3 (paper §3.3): the periodic
// auto-regression (PAR) algorithm of Espinoza et al. / Ardakanian et al.
// that extracts a household's typical daily profile — the expected
// consumption at each hour of the day due solely to the occupants'
// habits, with the outdoor-temperature effect removed.
//
// For each consumer and each hour of the day h, PAR fits a linear model
//
//	c(d, h) = a1*c(d-1, h) + ... + ap*c(d-p, h) + b*T(d, h) + k
//
// over the days d of the year (the paper uses p = 3).
//
// For the daily profile the temperature effect is estimated with a
// dedicated per-hour regression of consumption on temperature alone
// (slope bT). In the full AR model the lagged consumption terms — which
// carry yesterday's thermal load and correlate strongly with today's
// temperature — absorb much of the temperature coefficient, so using the
// AR model's b would leave thermal load inside the "habit" profile. The
// temperature-independent load at (d, h) is c(d, h) - bT*T(d, h); its
// mean over days is the daily-profile entry for hour h.
package par

import (
	"errors"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// DefaultOrder is the auto-regressive order fixed by the benchmark (p=3).
const DefaultOrder = 3

// HourModel is the fitted model for one hour of the day.
type HourModel struct {
	// ARCoef holds the p auto-regressive coefficients (lag 1 first).
	ARCoef []float64
	// TempCoef is the outdoor-temperature coefficient b.
	TempCoef float64
	// Intercept is the model constant.
	Intercept float64
	// R2 is the in-sample coefficient of determination.
	R2 float64
	// Fallback is true when the regression was singular (e.g. constant
	// consumption) and the model degraded to the hour's mean.
	Fallback bool
}

// Result is the PAR output for one consumer.
type Result struct {
	ID timeseries.ID
	// Profile is the 24-entry daily profile: expected temperature-
	// independent consumption at each hour of the day.
	Profile [timeseries.HoursPerDay]float64
	// Hours holds the 24 fitted hourly models.
	Hours [timeseries.HoursPerDay]HourModel
}

// ErrTooShort is returned when the series has too few days for the order.
var ErrTooShort = errors.New("par: series too short for AR order")

// Compute runs PAR with the benchmark's default order p=3.
func Compute(s *timeseries.Series, temp *timeseries.Temperature) (*Result, error) {
	return ComputeOrder(s, temp, DefaultOrder)
}

// ComputeOrder runs PAR with auto-regressive order p for one consumer:
// it builds a plan and uses it once. A loop over consumers that share a
// temperature year should build the plan itself (NewPlan) and keep one
// Scratch, as ComputeAll does.
func ComputeOrder(s *timeseries.Series, temp *timeseries.Temperature, p int) (*Result, error) {
	var sc Scratch
	return NewPlan(temp, p).Compute(s, &sc)
}

// ComputeAll runs the task for every series in the dataset.
func ComputeAll(d *timeseries.Dataset) ([]*Result, error) {
	plan := NewPlan(d.Temperature, DefaultOrder)
	var sc Scratch
	out := make([]*Result, 0, len(d.Series))
	for _, s := range d.Series {
		r, err := plan.Compute(s, &sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
