package par

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// sameFloat is bit equality, except that any NaN equals any NaN: which
// payload an operation on two NaNs hands on is the processor's choice.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameResult reports the first field in which two results differ.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.ID != want.ID {
		t.Fatalf("%s: ID %d, want %d", label, got.ID, want.ID)
	}
	for h := range want.Hours {
		g, w := got.Hours[h], want.Hours[h]
		if !sameFloat(got.Profile[h], want.Profile[h]) {
			t.Fatalf("%s hour %d: Profile %v (%#x), want %v (%#x)", label, h,
				got.Profile[h], math.Float64bits(got.Profile[h]), want.Profile[h], math.Float64bits(want.Profile[h]))
		}
		if g.Fallback != w.Fallback || !sameFloat(g.TempCoef, w.TempCoef) ||
			!sameFloat(g.Intercept, w.Intercept) || !sameFloat(g.R2, w.R2) {
			t.Fatalf("%s hour %d: model %+v, want %+v", label, h, g, w)
		}
		if len(g.ARCoef) != len(w.ARCoef) {
			t.Fatalf("%s hour %d: %d AR coefficients, want %d", label, h, len(g.ARCoef), len(w.ARCoef))
		}
		for j := range w.ARCoef {
			if !sameFloat(g.ARCoef[j], w.ARCoef[j]) {
				t.Fatalf("%s hour %d lag %d: %v, want %v", label, h, j+1, g.ARCoef[j], w.ARCoef[j])
			}
		}
	}
}

// drawCase returns the readings and temperatures of one draw of the
// oracle test. kind selects the shape: the ordinary consumer and the
// inputs on which the regression degrades or the arithmetic leaves the
// finite numbers.
func drawCase(rng *rand.Rand, kind, days int) (readings, temps []float64) {
	n := days * hoursPerDay
	readings, temps = make([]float64, n), make([]float64, n)
	for i := range temps {
		temps[i] = 8 + 14*math.Sin(2*math.Pi*float64(i/hoursPerDay)/365) + 4*math.Sin(2*math.Pi*float64(i%hoursPerDay)/24) + rng.NormFloat64()
		// A meter reports whole watt-hours.
		readings[i] = math.Round(1000*math.Abs(0.6+0.03*temps[i]+0.4*rng.NormFloat64())) / 1000
	}
	at := func() int { return rng.Intn(n) }
	switch kind {
	case 1: // flat consumer: every hour falls back to its mean
		for i := range readings {
			readings[i] = 1.25
		}
	case 2: // all-zero consumer
		for i := range readings {
			readings[i] = 0
		}
	case 3: // one flat hour of the day among ordinary ones
		h := rng.Intn(hoursPerDay)
		for d := 0; d < days; d++ {
			readings[d*hoursPerDay+h] = 0.5
		}
	case 4: // constant temperature: the full model is singular, AR-only is not
		for i := range temps {
			temps[i] = 12.5
		}
	case 5: // constant temperature with a non-finite value in it
		for i := range temps {
			temps[i] = 12.5
		}
		temps[at()] = math.Inf(1)
	case 6: // all temperatures zero, one NaN
		for i := range temps {
			temps[i] = 0
		}
		temps[at()] = math.NaN()
	case 7: // missing readings
		for k := 0; k < 1+rng.Intn(4); k++ {
			readings[at()] = math.NaN()
		}
	case 8: // infinite readings
		readings[at()] = math.Inf(1)
		readings[at()] = math.Inf(-1)
	case 9: // hour-periodic consumer: every day the same
		for i := range readings {
			readings[i] = readings[i%hoursPerDay]
		}
	case 10: // huge and tiny magnitudes side by side
		for k := 0; k < 6; k++ {
			readings[at()] = 1e300
			readings[at()] = 1e-300
		}
	case 11: // one hour of the day at a constant temperature: it alone retries
		h := rng.Intn(hoursPerDay)
		for d := 0; d < days; d++ {
			temps[d*hoursPerDay+h] = 12.5
		}
	}
	return readings, temps
}

const drawKinds = 12

// onBothPaths runs f on the path this CPU selects and again on the Go
// lanes alone, clearing useAVX the way the similarity kernel's tests do.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("selected", f)
	t.Run("lanes", func(t *testing.T) { withLanes(func() { f(t) }) })
}

// withLanes runs f with the vector path off.
func withLanes(f func()) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	f()
}

// TestPlannedPARMatchesNaiveBits holds Plan.Compute to the textbook
// kernel bit for bit, in every field of every hour's model and of the
// profile, over orders 1 to 6, series from the shortest the order
// admits to over a year, and every input shape of drawCase, on both
// paths.
func TestPlannedPARMatchesNaiveBits(t *testing.T) {
	onBothPaths(t, plannedMatchesNaive)
}

func plannedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var sc Scratch // one scratch across orders and lengths, as a worker slot sees it
	for draw := 0; draw < 432; draw++ {
		order := 1 + draw%6
		kind := (draw / 6) % drawKinds
		minDays := 2*order + 2
		days := minDays + rng.Intn(401-minDays)
		switch draw % 5 {
		case 0:
			days = minDays
		case 1:
			days = minDays + rng.Intn(8)
		}
		readings, temps := drawCase(rng, kind, days)
		s := &timeseries.Series{ID: timeseries.ID(draw + 1), Readings: readings}
		temp := &timeseries.Temperature{Values: temps}
		want, err := computeNaive(s, temp, order)
		if err != nil {
			t.Fatalf("draw %d: naive: %v", draw, err)
		}
		got, err := NewPlan(temp, order).Compute(s, &sc)
		if err != nil {
			t.Fatalf("draw %d: planned: %v", draw, err)
		}
		sameResult(t, fmt.Sprintf("draw %d kind %d order %d days %d", draw, kind, order, days), got, want)
	}
}

// TestDrawsReachEveryBranch checks that the draws above reach the
// branches they are there for: a fit that only passes through the full
// model would pin nothing about the retry and the fallback.
func TestDrawsReachEveryBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sc Scratch
	fit := func(kind int) *Result {
		readings, temps := drawCase(rng, kind, 40)
		r, err := NewPlan(&timeseries.Temperature{Values: temps}, DefaultOrder).
			Compute(&timeseries.Series{ID: 1, Readings: readings}, &sc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := fit(1); !r.Hours[7].Fallback || !sameFloat(r.Hours[7].Intercept, 1.25) || math.Abs(r.Profile[7]-1.25) > 1e-9 {
		t.Errorf("flat consumer: hour 7 = %+v, profile %v, want the mean fallback at 1.25", r.Hours[7], r.Profile[7])
	}
	if r := fit(4); r.Hours[7].Fallback || !sameFloat(r.Hours[7].TempCoef, 0) || sameFloat(r.Hours[7].ARCoef[0], 0) {
		t.Errorf("constant temperature: hour 7 = %+v, want the AR-only retry", r.Hours[7])
	}
	r := fit(5)
	nans := 0
	for _, v := range r.Profile {
		if math.IsNaN(v) {
			nans++
		}
	}
	if nans != 1 {
		t.Errorf("constant temperature with one +Inf: %d NaN profile entries, want 1 (slope 0 times Inf)", nans)
	}

	// A four-hour group whose lanes take different models: a full-model
	// hour beside a retry (one hour at a constant temperature), and
	// beside a fallback (one flat hour).
	retry := func(m HourModel) bool { return !m.Fallback && sameFloat(m.TempCoef, 0) }
	fallback := func(m HourModel) bool { return m.Fallback }
	if r := fit(11); !mixedGroup(r, retry) {
		t.Errorf("one constant-temperature hour: no group mixes a full model with the retry")
	}
	if r := fit(3); !mixedGroup(r, fallback) {
		t.Errorf("one flat hour: no group mixes a full model with the fallback")
	}
}

// mixedGroup reports whether one four-hour group of r holds a
// full-model hour and an hour for which odd holds.
func mixedGroup(r *Result, odd func(HourModel) bool) bool {
	for h0 := 0; h0 < hoursPerDay; h0 += lanes {
		full, other := false, false
		for _, m := range r.Hours[h0 : h0+lanes] {
			switch {
			case odd(m):
				other = true
			case !m.Fallback && !sameFloat(m.TempCoef, 0):
				full = true
			}
		}
		if full && other {
			return true
		}
	}
	return false
}

// TestPlanRefusals pins the order and the texts of the checks, which
// are the old kernel's, and that a nil temperature is an empty year and
// not a panic.
func TestPlanRefusals(t *testing.T) {
	series := func(n int) *timeseries.Series {
		return &timeseries.Series{ID: 7, Readings: make([]float64, n)}
	}
	year := func(n int) *timeseries.Temperature {
		return &timeseries.Temperature{Values: make([]float64, n)}
	}
	for _, tc := range []struct {
		name  string
		s     *timeseries.Series
		temp  *timeseries.Temperature
		order int
		want  string
		is    error
	}{
		{"order zero wins over a length mismatch", series(24), year(48), 0, "par: order must be >= 1, got 0", nil},
		{"negative order", series(240), year(240), -2, "par: order must be >= 1, got -2", nil},
		{"length mismatch wins over a bad length", series(25), year(48), 3, "par: consumer 7 has 25 readings but 48 temperatures", nil},
		{"nil temperature is an empty year", series(240), nil, 3, "par: consumer 7 has 240 readings but 0 temperatures", nil},
		{"not whole days", series(25), year(25), 3, "par: consumer 7: " + timeseries.ErrBadLength.Error(), timeseries.ErrBadLength},
		{"too short", series(7 * 24), year(7 * 24), 3, "par: series too short for AR order: consumer 7 has 7 days, order 3", ErrTooShort},
		{"empty against nil", series(0), nil, 3, "par: series too short for AR order: consumer 7 has 0 days, order 3", ErrTooShort},
	} {
		_, err := ComputeOrder(tc.s, tc.temp, tc.order)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.is)
		}
		if tc.temp != nil {
			_, nerr := computeNaive(tc.s, tc.temp, tc.order)
			if nerr == nil || nerr.Error() != tc.want {
				t.Errorf("%s: naive error %v, want %q", tc.name, nerr, tc.want)
			}
		}
	}
	// Eight days is the shortest series order 3 admits.
	if _, err := ComputeOrder(series(8*24), year(8*24), 3); err != nil {
		t.Errorf("eight days, order 3: %v", err)
	}
}

func benchCase(days int) (*timeseries.Series, *timeseries.Temperature) {
	readings, temps := drawCase(rand.New(rand.NewSource(29)), 0, days)
	return &timeseries.Series{ID: 1, Readings: readings}, &timeseries.Temperature{Values: temps}
}

// TestPlannedPARAllocations pins what a planned fit allocates: the
// Result and the array behind its 24 ARCoef slices.
func TestPlannedPARAllocations(t *testing.T) {
	onBothPaths(t, plannedAllocations)
}

func plannedAllocations(t *testing.T) {
	s, temp := benchCase(60)
	plan := NewPlan(temp, DefaultOrder)
	var sc Scratch
	if _, err := plan.Compute(s, &sc); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := plan.Compute(s, &sc); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 2 {
		t.Errorf("Plan.Compute allocates %v times per run, want 2", allocs)
	}
}

// TestPlanSharedAcrossGoroutines fits different consumers against one
// plan from several goroutines at once, each with its own scratch, on
// both paths; run under -race it shows that Compute only reads the
// plan.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	onBothPaths(t, planShared)
}

func planShared(t *testing.T) {
	const workers, days = 4, 30
	rng := rand.New(rand.NewSource(31))
	_, temps := drawCase(rng, 0, days)
	temp := &timeseries.Temperature{Values: temps}
	series := make([]*timeseries.Series, 3*workers)
	want := make([]*Result, len(series))
	for i := range series {
		readings, _ := drawCase(rng, i%drawKinds, days)
		series[i] = &timeseries.Series{ID: timeseries.ID(i + 1), Readings: readings}
		var err error
		if want[i], err = computeNaive(series[i], temp, DefaultOrder); err != nil {
			t.Fatal(err)
		}
	}
	plan := NewPlan(temp, DefaultOrder)
	got := make([]*Result, len(series))
	errs := make([]error, len(series))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc Scratch
			for i := w; i < len(series); i += workers {
				got[i], errs[i] = plan.Compute(series[i], &sc)
			}
		}(w)
	}
	wg.Wait()
	for i := range series {
		if errs[i] != nil {
			t.Fatalf("consumer %d: %v", i, errs[i])
		}
		sameResult(t, fmt.Sprintf("consumer %d", i), got[i], want[i])
	}
}

var benchSink *Result

// BenchmarkPARNaive is the textbook kernel over one year of one
// consumer: the baseline the next two are read against.
func BenchmarkPARNaive(b *testing.B) {
	s, temp := benchCase(365)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = computeNaive(s, temp, DefaultOrder)
	}
}

// BenchmarkPARPlanned is what a run pays per consumer: one plan and one
// scratch, many fits.
func BenchmarkPARPlanned(b *testing.B) {
	s, temp := benchCase(365)
	plan := NewPlan(temp, DefaultOrder)
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = plan.Compute(s, &sc)
	}
}

// BenchmarkPAROneOff is Compute as a caller with a single consumer uses
// it: a plan and a scratch per fit.
func BenchmarkPAROneOff(b *testing.B) {
	s, temp := benchCase(365)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = Compute(s, temp)
	}
}

// BenchmarkPARDataset is the layer as a run uses it: one plan and one
// scratch over a year of 640 consumers, the benchmark's default store,
// each fitted once per iteration, in ns per reading. Its data (45 MB)
// outgrows the caches that one consumer fitted over and over stays in.
// The sub-benchmarks are the path this CPU selects and the Go lanes.
func BenchmarkPARDataset(b *testing.B) {
	const consumers, days = 640, 365
	rng := rand.New(rand.NewSource(37))
	series := make([]*timeseries.Series, consumers)
	var temps []float64
	for i := range series {
		readings, t := drawCase(rng, 0, days)
		if i == 0 {
			temps = t
		}
		series[i] = &timeseries.Series{ID: timeseries.ID(i + 1), Readings: readings}
	}
	plan := NewPlan(&timeseries.Temperature{Values: temps}, DefaultOrder)
	run := func(b *testing.B) {
		var sc Scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range series {
				benchSink, _ = plan.Compute(s, &sc)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*consumers*days*hoursPerDay), "ns/reading")
	}
	b.Run("selected", run)
	b.Run("lanes", func(b *testing.B) { withLanes(func() { run(b) }) })
}
