package par

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// syntheticHabit builds a consumer with a fixed hourly activity pattern
// plus a linear temperature response: c = act[h] + b*T + noise.
func syntheticHabit(act [timeseries.HoursPerDay]float64, b float64, days int, noise float64, seedVal int64) (*timeseries.Series, *timeseries.Temperature) {
	rng := rand.New(rand.NewSource(seedVal))
	n := days * timeseries.HoursPerDay
	temps := make([]float64, n)
	readings := make([]float64, n)
	for i := range temps {
		day := i / timeseries.HoursPerDay
		hour := i % timeseries.HoursPerDay
		temps[i] = 10 + 12*math.Sin(2*math.Pi*float64(day)/60) +
			3*math.Sin(2*math.Pi*float64(hour)/24) + rng.NormFloat64()
		readings[i] = act[hour] + b*temps[i] + rng.NormFloat64()*noise
	}
	return &timeseries.Series{ID: 1, Readings: readings},
		&timeseries.Temperature{Values: temps}
}

func TestComputeRecoversProfile(t *testing.T) {
	var act [timeseries.HoursPerDay]float64
	for h := range act {
		act[h] = 0.5 + 0.4*math.Sin(2*math.Pi*float64(h)/24)
	}
	const b = 0.05
	s, temp := syntheticHabit(act, b, 365, 0.02, 1)
	r, err := Compute(s, temp)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < timeseries.HoursPerDay; h++ {
		if math.Abs(r.Profile[h]-act[h]) > 0.08 {
			t.Errorf("Profile[%d] = %g, want ~%g", h, r.Profile[h], act[h])
		}
		if math.Abs(r.Hours[h].TempCoef-b) > 0.02 {
			t.Errorf("TempCoef[%d] = %g, want ~%g", h, r.Hours[h].TempCoef, b)
		}
		if r.Hours[h].Fallback {
			t.Errorf("hour %d unexpectedly fell back", h)
		}
		if len(r.Hours[h].ARCoef) != DefaultOrder {
			t.Errorf("hour %d has %d AR coefficients", h, len(r.Hours[h].ARCoef))
		}
	}
}

func TestProfileIgnoresTemperatureSwings(t *testing.T) {
	// Two consumers with the same habits but different thermal gain must
	// yield nearly the same profile shape (peak hour preserved).
	var act [timeseries.HoursPerDay]float64
	for h := range act {
		act[h] = 0.3
	}
	act[18] = 1.5 // evening peak
	s1, temp := syntheticHabit(act, 0.0, 365, 0.02, 2)
	s2, _ := syntheticHabit(act, 0.09, 365, 0.02, 3)
	r1, err := Compute(s1, temp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compute(s2, temp)
	if err != nil {
		t.Fatal(err)
	}
	peak1, peak2 := argmax(r1.Profile[:]), argmax(r2.Profile[:])
	if peak1 != 18 || peak2 != 18 {
		t.Errorf("peak hours = %d, %d, want 18", peak1, peak2)
	}
	// Temperature persistence leaks a little of the thermal response into
	// the AR terms, shifting the profile by a constant — so compare the
	// profile *shape* (peak height above the profile mean).
	mean1, _ := meanOf(r1.Profile[:])
	mean2, _ := meanOf(r2.Profile[:])
	rel1 := r1.Profile[18] - mean1
	rel2 := r2.Profile[18] - mean2
	if d := math.Abs(rel1 - rel2); d > 0.15 {
		t.Errorf("peak shapes differ by %g despite equal habits", d)
	}
}

func meanOf(xs []float64) (float64, error) {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func TestFallbackOnConstantConsumption(t *testing.T) {
	n := 60 * timeseries.HoursPerDay
	readings := make([]float64, n)
	temps := make([]float64, n)
	for i := range readings {
		readings[i] = 2.5 // perfectly constant => singular AR design
		temps[i] = 10
	}
	s := &timeseries.Series{ID: 1, Readings: readings}
	r, err := Compute(s, &timeseries.Temperature{Values: temps})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < timeseries.HoursPerDay; h++ {
		if !r.Hours[h].Fallback {
			t.Fatalf("hour %d: expected fallback on constant data", h)
		}
		if math.Abs(r.Profile[h]-2.5) > 1e-9 {
			t.Errorf("Profile[%d] = %g, want 2.5", h, r.Profile[h])
		}
	}
}

func TestComputeOrderValidation(t *testing.T) {
	s, temp := syntheticHabit([timeseries.HoursPerDay]float64{}, 0, 30, 0.01, 4)
	if _, err := ComputeOrder(s, temp, 0); err == nil {
		t.Error("order 0: want error")
	}
	// Too short: days - p <= p + 1.
	short, stemp := syntheticHabit([timeseries.HoursPerDay]float64{}, 0, 7, 0.01, 5)
	_, err := ComputeOrder(short, stemp, 3)
	if !errors.Is(err, ErrTooShort) {
		t.Errorf("short err = %v, want ErrTooShort", err)
	}
	// Length mismatch.
	bad := &timeseries.Series{ID: 1, Readings: make([]float64, 24)}
	if _, err := Compute(bad, temp); err == nil {
		t.Error("length mismatch: want error")
	}
	// Non-multiple-of-24 length.
	odd := &timeseries.Series{ID: 1, Readings: make([]float64, 25)}
	if _, err := Compute(odd, &timeseries.Temperature{Values: make([]float64, 25)}); err == nil {
		t.Error("bad length: want error")
	}
}

func TestComputeAll(t *testing.T) {
	var act [timeseries.HoursPerDay]float64
	for h := range act {
		act[h] = 1
	}
	s1, temp := syntheticHabit(act, 0.02, 60, 0.05, 6)
	s2, _ := syntheticHabit(act, 0.04, 60, 0.05, 7)
	s2.ID = 2
	d := &timeseries.Dataset{Series: []*timeseries.Series{s1, s2}, Temperature: temp}
	rs, err := ComputeAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[1].ID != 2 {
		t.Fatalf("results = %+v", rs)
	}
}

func TestARCapturesPersistence(t *testing.T) {
	// Consumption at hour h strongly tracks yesterday's value at h:
	// c(d) = 0.8*c(d-1) + e. The lag-1 AR coefficient should be large.
	rng := rand.New(rand.NewSource(8))
	days := 365
	n := days * timeseries.HoursPerDay
	readings := make([]float64, n)
	temps := make([]float64, n)
	for h := 0; h < timeseries.HoursPerDay; h++ {
		prev := 1.0
		for d := 0; d < days; d++ {
			v := 0.5 + 0.8*prev + rng.NormFloat64()*0.05
			readings[d*timeseries.HoursPerDay+h] = v
			prev = v
		}
	}
	s := &timeseries.Series{ID: 1, Readings: readings}
	r, err := Compute(s, &timeseries.Temperature{Values: temps})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < timeseries.HoursPerDay; h++ {
		if r.Hours[h].ARCoef[0] < 0.5 {
			t.Errorf("hour %d lag-1 coefficient = %g, want > 0.5", h, r.Hours[h].ARCoef[0])
		}
	}
}
