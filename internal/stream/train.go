package stream

import (
	"math"

	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// TrainProfiles fits a Profile for every household in a historical
// dataset: the PAR daily profile supplies the habitual load, the 3-line
// model supplies the thermal gradients and comfort band, and the
// tolerance is set to sigmaMult times the residual standard deviation
// of the fitted model over the training data (default 4).
func TrainProfiles(ds *timeseries.Dataset, sigmaMult float64) (map[timeseries.ID]Profile, error) {
	if sigmaMult <= 0 {
		sigmaMult = 4
	}
	out := make(map[timeseries.ID]Profile, len(ds.Series))
	plan := threeline.NewPlan(ds.Temperature, threeline.DefaultConfig())
	var sc threeline.Scratch
	parPlan := par.NewPlan(ds.Temperature, par.DefaultOrder)
	var parScratch par.Scratch
	for _, s := range ds.Series {
		pr, err := parPlan.Compute(s, &parScratch)
		if err != nil {
			return nil, err
		}
		tl, _, err := plan.Compute(s, &sc)
		if err != nil {
			return nil, err
		}
		p := Profile{
			HeatingGradient: math.Max(0, tl.HeatingGradient),
			CoolingGradient: math.Max(0, tl.CoolingGradient),
			HeatingRef:      tl.High.Break1,
			CoolingRef:      tl.High.Break2,
		}
		for h := 0; h < timeseries.HoursPerDay; h++ {
			p.Daily[h] = math.Max(0, pr.Profile[h])
		}
		// Calibrate: absorb the mean residual into a bias term, then set
		// the tolerance from the centred residual spread.
		var m stats.Moments
		for i, c := range s.Readings {
			h := i % timeseries.HoursPerDay
			m.Add(c - p.Expected(h, ds.Temperature.Values[i]))
		}
		p.Bias = m.Mean()
		tol := sigmaMult * m.StdDev()
		if tol <= 0 {
			tol = 1
		}
		p.Tolerance = tol
		out[s.ID] = p
	}
	return out, nil
}
