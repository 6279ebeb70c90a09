package threeline

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// resultBits flattens a Result so two of them compare bit for bit, NaNs
// included.
func resultBits(r *Result) []float64 {
	out := []float64{float64(r.ID), r.HeatingGradient, r.CoolingGradient, r.BaseLoad, r.TempMin, r.TempMax}
	for _, m := range []Model{r.High, r.Low} {
		deg := 0.0
		if m.Degenerate {
			deg = 1
		}
		out = append(out, deg, m.Break1, m.Break2, m.SSE, m.Heating.Slope, m.Heating.Intercept,
			m.Base.Slope, m.Base.Intercept, m.Cooling.Slope, m.Cooling.Intercept)
	}
	return out
}

// whReading draws a consumption value the way the stores hold them:
// non-negative and rounded to the Wh, from a range narrow enough that a
// bin holds many duplicates. Rounding a non-negative value never yields
// -0, which keeps the one tie the float order leaves open out of the
// draw: -0 and +0 compare equal, so where a sort leaves them relative to
// each other is unspecified, and the bits of a percentile that lands on
// such a pair are not a property of the input. The same holds for NaNs
// of different payloads; the draw uses math.NaN() only.
func whReading(rng *rand.Rand, special bool) float64 {
	if special {
		switch rng.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
	}
	return math.Round(rng.Float64()*0.4*1000) / 1000
}

// t1Case is one draw of the property test below.
type t1Case struct {
	name  string
	cfg   Config
	temps func(rng *rand.Rand, n int) []float64
}

func uniformTemps(lo, hi float64) func(*rand.Rand, int) []float64 {
	return func(rng *rand.Rand, n int) []float64 {
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = lo + (hi-lo)*rng.Float64()
		}
		return ts
	}
}

var t1Cases = []t1Case{
	{name: "year of weather", cfg: DefaultConfig(), temps: uniformTemps(-15, 35)},
	{name: "other quantiles and widths", cfg: Config{BinWidth: 2.5, LowQ: 0.25, HighQ: 0.99, MinBinPoints: 2}, temps: uniformTemps(-30, 30)},
	{name: "one bin", cfg: DefaultConfig(), temps: uniformTemps(20.1, 20.9)},
	{
		// Bin k receives k%7 hours, so with MinBinPoints 4 the bins sit
		// just below, at and just above the threshold.
		name: "bins around MinBinPoints", cfg: DefaultConfig(),
		temps: func(rng *rand.Rand, n int) []float64 {
			ts := make([]float64, 0, n)
			for k := 0; len(ts) < n; k++ {
				for j := 0; j < k%7 && len(ts) < n; j++ {
					ts = append(ts, float64(k%60-30)+rng.Float64())
				}
			}
			rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			return ts
		},
	},
	{
		// Keys a million apart and one absurd hour: the key span dwarfs the
		// hour count, so the plan must rank distinct keys instead of
		// counting over the span.
		name: "sparse keys", cfg: Config{BinWidth: 1e-5, MinBinPoints: 1},
		temps: func(rng *rand.Rand, n int) []float64 {
			ts := make([]float64, n)
			for i := range ts {
				ts[i] = float64(rng.Intn(12)*10 - 60)
			}
			ts[rng.Intn(n)] = 1e300
			ts[rng.Intn(n)] = -4e13
			return ts
		},
	},
}

// Property: the planned T1 (plan + gather + selection) returns the
// naive T1's (map + full sort) point set bit for bit, and the whole
// planned fit returns the bits of the naive T1 followed by FitPoints.
func TestPlannedT1MatchesNaiveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 400; trial++ {
		c := t1Cases[trial%len(t1Cases)]
		n := 1 + rng.Intn(3000)
		temps := c.temps(rng, n)
		readings := make([]float64, n)
		for i := range readings {
			readings[i] = whReading(rng, trial%3 == 0)
		}
		cfg := c.cfg
		cfg.fillDefaults()
		wantXs, wantLows, wantHighs := percentilePointsNaive(readings, temps, cfg)

		p := NewPlan(&timeseries.Temperature{Values: temps}, c.cfg)
		var sc Scratch
		s := &timeseries.Series{ID: 9, Readings: readings}
		got, _, gotErr := p.Compute(s, &sc)
		if !sameBits(p.xs, wantXs) || !sameBits(sc.lows, wantLows) || !sameBits(sc.highs, wantHighs) {
			t.Fatalf("trial %d (%s, n=%d): point sets differ\nxs    %v\nwant  %v\nlows  %v\nwant  %v\nhighs %v\nwant  %v",
				trial, c.name, n, p.xs, wantXs, sc.lows, wantLows, sc.highs, wantHighs)
		}
		want, wantErr := FitPoints(s.ID, wantXs, wantLows, wantHighs, c.cfg)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d (%s): err %v, want %v", trial, c.name, gotErr, wantErr)
		}
		if gotErr == nil && !sameBits(resultBits(got), resultBits(want)) {
			t.Fatalf("trial %d (%s): result %+v, want %+v", trial, c.name, got, want)
		}
	}
}

// An hour whose temperature is NaN or +-Inf belongs to no bin: the fit
// equals the fit over the series with those hours cut out.
func TestNonFiniteTemperaturesAreSkipped(t *testing.T) {
	s, temp := syntheticThermal(0.8, 0.15, 0.2, 14, 24, 200, 0.02, 7)
	rng := rand.New(rand.NewSource(7))
	var keptR, keptT []float64
	for i := range temp.Values {
		switch rng.Intn(10) {
		case 0:
			temp.Values[i] = math.NaN()
		case 1:
			temp.Values[i] = math.Inf(1)
		case 2:
			temp.Values[i] = math.Inf(-1)
		default:
			keptR = append(keptR, s.Readings[i])
			keptT = append(keptT, temp.Values[i])
		}
	}
	got, err := Compute(s, temp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compute(&timeseries.Series{ID: s.ID, Readings: keptR}, &timeseries.Temperature{Values: keptT})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(resultBits(got), resultBits(want)) {
		t.Errorf("with non-finite hours %+v\nwithout them        %+v", got, want)
	}
	if got.TempMin < -16 || got.TempMax > 37 {
		t.Errorf("temperature range [%g, %g] contains a non-finite hour's bin", got.TempMin, got.TempMax)
	}
	// The oracle follows the same rule.
	cfg := DefaultConfig()
	xs, lows, highs := percentilePointsNaive(s.Readings, temp.Values, cfg)
	kx, kl, kh := percentilePointsNaive(keptR, keptT, cfg)
	if !sameBits(xs, kx) || !sameBits(lows, kl) || !sameBits(highs, kh) {
		t.Error("percentilePointsNaive does not skip non-finite temperatures")
	}

	for i := range temp.Values {
		temp.Values[i] = math.NaN()
	}
	if _, err := Compute(s, temp); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("all-NaN temperature year: err = %v, want ErrInsufficientData", err)
	}
}

// Error texts and their order are part of the contract: engines are
// compared with the reference in errors too.
func TestPlanComputeErrors(t *testing.T) {
	p := NewPlan(&timeseries.Temperature{Values: make([]float64, 24)}, DefaultConfig())
	var sc Scratch
	_, _, err := p.Compute(&timeseries.Series{ID: 3}, &sc)
	if err == nil || err.Error() != "threeline: consumer 3 has 0 readings but 24 temperatures" {
		t.Errorf("empty series against 24 temperatures: %v", err)
	}
	_, _, err = p.Compute(&timeseries.Series{ID: 3, Readings: make([]float64, 24)}, &sc)
	if !errors.Is(err, ErrInsufficientData) || err.Error() != "threeline: insufficient data: consumer 3 has 1 populated temperature bins" {
		t.Errorf("one bin: %v", err)
	}
	_, _, err = NewPlan(nil, DefaultConfig()).Compute(&timeseries.Series{ID: 3, Readings: make([]float64, 24)}, &sc)
	if err == nil || err.Error() != "threeline: consumer 3 has 24 readings but 0 temperatures" {
		t.Errorf("nil temperature series: %v", err)
	}
	empty := NewPlan(&timeseries.Temperature{}, DefaultConfig())
	_, _, err = empty.Compute(&timeseries.Series{ID: 3}, &sc)
	if !errors.Is(err, ErrInsufficientData) || err.Error() != "threeline: insufficient data: consumer 3 is empty" {
		t.Errorf("empty against empty: %v", err)
	}
}

// A warm Scratch makes T1 allocation-free and leaves the Result as the
// only allocation of a whole planned fit.
func TestPlannedComputeAllocations(t *testing.T) {
	s, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 365, 0.05, 4)
	p := NewPlan(temp, DefaultConfig())
	var sc Scratch
	if _, _, err := p.Compute(s, &sc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { p.percentilePoints(s.Readings, &sc) }); n != 0 {
		t.Errorf("T1 with a warm Scratch allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := p.Compute(s, &sc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("planned Compute allocates %v times, want 1 (the Result)", n)
	}
}

// One Plan serves any number of goroutines, each with its own Scratch
// (run under -race).
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	const consumers, goroutines = 24, 4
	_, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 120, 0.05, 1)
	series := make([]*timeseries.Series, consumers)
	for i := range series {
		series[i], _ = syntheticThermal(0.5+float64(i)/10, 0.1, 0.15, 14, 24, 120, 0.05, int64(i+1))
		series[i].ID = timeseries.ID(i + 1)
	}
	p := NewPlan(temp, DefaultConfig())
	want := make([]*Result, consumers)
	var sc Scratch
	for i, s := range series {
		r, _, err := p.Compute(s, &sc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]*Result, consumers)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			for i := g; i < consumers; i += goroutines {
				r, _, err := p.Compute(series[i], &sc)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = r
			}
		}(g)
	}
	wg.Wait()
	for i := range want {
		if got[i] == nil || !sameBits(resultBits(got[i]), resultBits(want[i])) {
			t.Errorf("consumer %d: concurrent %+v, serial %+v", i+1, got[i], want[i])
		}
	}
}

// The T1 ablation: the map+sort oracle, the planned kernel with the plan
// and scratch amortised over a run, and the one-off path that rebuilds
// the plan per series (what Compute and ComputeTimed pay).
func t1BenchInput() (*timeseries.Series, *timeseries.Temperature) {
	s, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 365, 0.05, 4)
	for i, v := range s.Readings {
		s.Readings[i] = math.Round(v*1000) / 1000
	}
	return s, temp
}

func BenchmarkT1Naive(b *testing.B) {
	s, temp := t1BenchInput()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		percentilePointsNaive(s.Readings, temp.Values, cfg)
	}
}

func BenchmarkT1Planned(b *testing.B) {
	s, temp := t1BenchInput()
	p := NewPlan(temp, DefaultConfig())
	var sc Scratch
	sc.size(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.percentilePoints(s.Readings, &sc)
	}
}

func BenchmarkT1OneOff(b *testing.B) {
	s, temp := t1BenchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPlan(temp, DefaultConfig())
		var sc Scratch
		sc.size(p)
		p.percentilePoints(s.Readings, &sc)
	}
}
