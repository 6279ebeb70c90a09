package threeline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// syntheticThermal builds a consumer whose consumption follows an exact
// V-with-flat-bottom thermal profile plus a constant base:
// heating below heatRef, flat between, cooling above coolRef.
func syntheticThermal(base, hg, cg, heatRef, coolRef float64, days int, noise float64, seedVal int64) (*timeseries.Series, *timeseries.Temperature) {
	rng := rand.New(rand.NewSource(seedVal))
	n := days * timeseries.HoursPerDay
	temps := make([]float64, n)
	readings := make([]float64, n)
	for i := range temps {
		// Sweep temperatures across [-15, 35] repeatedly so every degree
		// bin is well populated.
		t := -15 + float64(i%51) + rng.Float64()
		temps[i] = t
		v := base + hg*math.Max(0, heatRef-t) + cg*math.Max(0, t-coolRef) + rng.NormFloat64()*noise
		if v < 0 {
			v = 0
		}
		readings[i] = v
	}
	return &timeseries.Series{ID: 1, Readings: readings},
		&timeseries.Temperature{Values: temps}
}

func TestComputeRecoversGradients(t *testing.T) {
	const (
		base, hg, cg     = 0.8, 0.15, 0.20
		heatRef, coolRef = 14.0, 24.0
	)
	s, temp := syntheticThermal(base, hg, cg, heatRef, coolRef, 365, 0.02, 1)
	r, err := Compute(s, temp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.HeatingGradient-hg) > 0.03 {
		t.Errorf("HeatingGradient = %g, want ~%g", r.HeatingGradient, hg)
	}
	if math.Abs(r.CoolingGradient-cg) > 0.03 {
		t.Errorf("CoolingGradient = %g, want ~%g", r.CoolingGradient, cg)
	}
	// Breakpoints should be near the true comfort band edges.
	if math.Abs(r.High.Break1-heatRef) > 4 {
		t.Errorf("Break1 = %g, want ~%g", r.High.Break1, heatRef)
	}
	if math.Abs(r.High.Break2-coolRef) > 4 {
		t.Errorf("Break2 = %g, want ~%g", r.High.Break2, coolRef)
	}
	// Base load is the low-percentile floor.
	if math.Abs(r.BaseLoad-base) > 0.15 {
		t.Errorf("BaseLoad = %g, want ~%g", r.BaseLoad, base)
	}
	if r.TempMin >= r.TempMax {
		t.Errorf("temp range [%g, %g]", r.TempMin, r.TempMax)
	}
}

func TestModelContinuity(t *testing.T) {
	s, temp := syntheticThermal(1, 0.1, 0.12, 15, 23, 365, 0.05, 2)
	r, err := Compute(s, temp)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{r.High, r.Low} {
		if m.Degenerate {
			t.Fatal("unexpected degenerate model")
		}
		// Continuity at both breakpoints: approach from both sides.
		eps := 1e-9
		for _, b := range []float64{m.Break1, m.Break2} {
			left := m.At(b - eps)
			right := m.At(b + eps)
			if math.Abs(left-right) > 1e-6 {
				t.Errorf("discontinuity at %g: %g vs %g", b, left, right)
			}
		}
		if m.Break1 >= m.Break2 {
			t.Errorf("breakpoints out of order: %g >= %g", m.Break1, m.Break2)
		}
	}
}

func TestHighModelDominatesLow(t *testing.T) {
	s, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 365, 0.15, 3)
	r, err := Compute(s, temp)
	if err != nil {
		t.Fatal(err)
	}
	// The 90th-percentile model should sit above the 10th-percentile model
	// across the observed range.
	for tv := r.TempMin; tv <= r.TempMax; tv++ {
		if r.High.At(tv) < r.Low.At(tv)-0.05 {
			t.Errorf("High(%g) = %g below Low(%g) = %g", tv, r.High.At(tv), tv, r.Low.At(tv))
		}
	}
}

func TestComputeTimedPhases(t *testing.T) {
	s, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 120, 0.05, 4)
	_, tm, err := ComputeTimed(s, temp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tm.T1Quantiles <= 0 || tm.T2Regression <= 0 {
		t.Errorf("phases not timed: %+v", tm)
	}
	if tm.Total() < tm.T1Quantiles {
		t.Errorf("Total %v < T1 %v", tm.Total(), tm.T1Quantiles)
	}
}

func TestDegenerateFewBins(t *testing.T) {
	// All readings in only 3 temperature bins: too few for 3 segments,
	// falls back to a single line.
	n := 240
	temps := make([]float64, n)
	readings := make([]float64, n)
	for i := range temps {
		temps[i] = float64(i%3) + 0.5 // bins 0, 1, 2
		readings[i] = 1 + 0.5*temps[i]
	}
	s := &timeseries.Series{ID: 1, Readings: readings}
	r, err := Compute(s, &timeseries.Temperature{Values: temps})
	if err != nil {
		t.Fatal(err)
	}
	if !r.High.Degenerate {
		t.Error("expected degenerate model with 3 bins")
	}
	if math.Abs(r.High.Heating.Slope-0.5) > 1e-6 {
		t.Errorf("degenerate slope = %g, want 0.5", r.High.Heating.Slope)
	}
}

// PointsFromSortedBins keeps only the bins holding at least MinBinPoints
// readings, in ascending bin order, each as its centre and its two
// type-7 quantiles; a sparse bin, however placed, leaves the point set
// bit-identical.
func TestPointsFromSortedBins(t *testing.T) {
	cfg := Config{BinWidth: 2, LowQ: 0.25, HighQ: 0.75, MinBinPoints: 5}
	bins := map[int][]float64{
		9:  {10, 20, 30, 40, 50},
		-3: {0.5, 1, 1.5, 2, 9},
		4:  {1, 2, 3, 4}, // one short of MinBinPoints
		1:  {1, 2, 3, 4, 5},
	}
	xs, lows, highs := PointsFromSortedBins(bins, cfg)
	wantXs, wantLows, wantHighs := []float64{-5, 3, 19}, []float64{1, 2, 20}, []float64{2, 4, 40}
	if !sameBits(xs, wantXs) || !sameBits(lows, wantLows) || !sameBits(highs, wantHighs) {
		t.Fatalf("points xs %v lows %v highs %v, want %v %v %v", xs, lows, highs, wantXs, wantLows, wantHighs)
	}

	bins[12] = []float64{7}
	bins[-8] = []float64{0, 1, 2}
	bins[4] = nil
	gx, gl, gh := PointsFromSortedBins(bins, cfg)
	if !sameBits(gx, xs) || !sameBits(gl, lows) || !sameBits(gh, highs) {
		t.Errorf("sparse bins changed the points: xs %v lows %v highs %v", gx, gl, gh)
	}

	// The zero Config takes the defaults: 1-degree bins, the 10th and
	// 90th percentiles, four readings a bin.
	xs, lows, highs = PointsFromSortedBins(map[int][]float64{
		2: {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		0: {5, 5, 5},
		3: {1, 2, 3, 4},
	}, Config{})
	if !sameBits(xs, []float64{2.5, 3.5}) || !sameBits(lows, []float64{10, 1.3}) || !sameBits(highs, []float64{90, 3.7}) {
		t.Errorf("default config: xs %v lows %v highs %v, want [2.5 3.5] [10 1.3] [90 3.7]", xs, lows, highs)
	}
}

func TestInsufficientData(t *testing.T) {
	// A single temperature bin cannot support any fit.
	temps := make([]float64, 24)
	readings := make([]float64, 24)
	for i := range temps {
		temps[i] = 20.2
		readings[i] = 1
	}
	s := &timeseries.Series{ID: 1, Readings: readings}
	_, err := Compute(s, &timeseries.Temperature{Values: temps})
	if !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}

	empty := &timeseries.Series{ID: 2}
	_, err = Compute(empty, &timeseries.Temperature{})
	if !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty err = %v, want ErrInsufficientData", err)
	}
}

func TestLengthMismatch(t *testing.T) {
	s := &timeseries.Series{ID: 1, Readings: make([]float64, 48)}
	_, err := Compute(s, &timeseries.Temperature{Values: make([]float64, 24)})
	if err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestComputeAll(t *testing.T) {
	s1, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 90, 0.05, 5)
	s2, _ := syntheticThermal(0.5, 0.2, 0.05, 16, 22, 90, 0.05, 6)
	s2.ID = 2
	d := &timeseries.Dataset{Series: []*timeseries.Series{s1, s2}, Temperature: temp}
	rs, err := ComputeAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].ID != 1 || rs[1].ID != 2 {
		t.Errorf("results = %v", rs)
	}
}

func TestConfigDefaultsFill(t *testing.T) {
	var c Config
	c.fillDefaults()
	d := DefaultConfig()
	if c != d {
		t.Errorf("filled config = %+v, want %+v", c, d)
	}
	// Out-of-range quantiles reset to defaults.
	c = Config{LowQ: -1, HighQ: 2}
	c.fillDefaults()
	if c.LowQ != d.LowQ || c.HighQ != d.HighQ {
		t.Errorf("quantiles = %g, %g", c.LowQ, c.HighQ)
	}
}

func TestSegFitterMatchesDirectSSE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 40
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 2 + rng.NormFloat64()
	}
	f := newSegFitter(xs)
	f.setY(ys)
	for _, rg := range [][2]int{{0, n}, {5, 20}, {10, 13}} {
		line, sse := f.fit(rg[0], rg[1])
		// Direct SSE.
		var direct float64
		for i := rg[0]; i < rg[1]; i++ {
			r := ys[i] - line.At(xs[i])
			direct += r * r
		}
		if math.Abs(sse-direct) > 1e-6*(1+direct) {
			t.Errorf("range %v: prefix-sum SSE %g vs direct %g", rg, sse, direct)
		}
	}
}

func TestSegFitterConstantX(t *testing.T) {
	xs := []float64{2, 2, 2, 2}
	ys := []float64{1, 3, 5, 7}
	f := newSegFitter(xs)
	f.setY(ys)
	line, sse := f.fit(0, 4)
	if line.Slope != 0 || line.Intercept != 4 {
		t.Errorf("constant-x fit = %+v", line)
	}
	if math.Abs(sse-20) > 1e-9 { // sum (y-4)^2 = 9+1+1+9
		t.Errorf("constant-x SSE = %g, want 20", sse)
	}
}

func TestMinValue(t *testing.T) {
	m := Model{Break1: 10, Break2: 20}
	m.Heating.Slope, m.Heating.Intercept = -1, 15 // decreasing to 5 at t=10
	m.Base.Slope, m.Base.Intercept = 0, 5
	m.Cooling.Slope, m.Cooling.Intercept = 1, -15 // 5 at t=20, rising
	if got := m.MinValue(0, 30); got != 5 {
		t.Errorf("MinValue = %g, want 5", got)
	}
	// Restricting the range excludes the flat bottom.
	if got := m.MinValue(0, 5); got != 10 {
		t.Errorf("MinValue(0,5) = %g, want 10", got)
	}
}
