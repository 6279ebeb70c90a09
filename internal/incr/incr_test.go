package incr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// genDataset builds the deterministic ground-truth dataset the oracle
// compares against.
func genDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// readingsForHour flattens one absolute hour of the dataset into a batch.
func readingsForHour(ds *timeseries.Dataset, hour int) []core.Reading {
	batch := make([]core.Reading, 0, len(ds.Series))
	for _, s := range ds.Series {
		batch = append(batch, core.Reading{
			ID: s.ID, Hour: hour,
			Consumption: s.Readings[hour],
			Temperature: ds.Temperature.Values[hour],
		})
	}
	return batch
}

// prefix returns the dataset truncated to the first `hours` hours.
func prefix(ds *timeseries.Dataset, hours int) *timeseries.Dataset {
	out := &timeseries.Dataset{
		Temperature: &timeseries.Temperature{Values: ds.Temperature.Values[:hours]},
	}
	for _, s := range ds.Series {
		out.Series = append(out.Series, &timeseries.Series{ID: s.ID, Readings: s.Readings[:hours]})
	}
	return out
}

// oracleCheck compares every maintained analytic against a full
// recompute over the first `hours` hours of the dataset.
func oracleCheck(t *testing.T, a *Analytics, ds *timeseries.Dataset, hours int) {
	t.Helper()
	pfx := prefix(ds, hours)

	// Task 1: histogram — bit-identical range and counts.
	want, err := histogram.ComputeAll(pfx)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Histograms()
	if len(got) != len(want) {
		t.Fatalf("hour %d: %d histograms, want %d", hours, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID {
			t.Fatalf("hour %d: histogram %d is for %d, want %d", hours, i, g.ID, w.ID)
		}
		if !stats.ExactEqual(g.Histogram.Min, w.Histogram.Min) || !stats.ExactEqual(g.Histogram.Max, w.Histogram.Max) {
			t.Fatalf("hour %d: household %d: range [%v, %v], want [%v, %v]",
				hours, w.ID, g.Histogram.Min, g.Histogram.Max, w.Histogram.Min, w.Histogram.Max)
		}
		for b, c := range w.Histogram.Counts {
			if g.Histogram.Counts[b] != c {
				t.Fatalf("hour %d: household %d bucket %d: %d, want %d",
					hours, w.ID, b, g.Histogram.Counts[b], c)
			}
		}
	}

	// Task 2: 3-line — identical-input refit, 1e-9 tolerance.
	for _, s := range pfx.Series {
		wantTL, wantErr := threeline.Compute(s, pfx.Temperature)
		gotTL, gotErr := a.ThreeLine(s.ID)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("hour %d: household %d: threeline err %v vs %v", hours, s.ID, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for _, pair := range [][2]float64{
			{gotTL.HeatingGradient, wantTL.HeatingGradient},
			{gotTL.CoolingGradient, wantTL.CoolingGradient},
			{gotTL.BaseLoad, wantTL.BaseLoad},
			{gotTL.High.Break1, wantTL.High.Break1},
			{gotTL.High.Break2, wantTL.High.Break2},
			{gotTL.Low.Break1, wantTL.Low.Break1},
			{gotTL.Low.Break2, wantTL.Low.Break2},
		} {
			if !approxOrBothInf(pair[0], pair[1]) {
				t.Fatalf("hour %d: household %d: threeline %v, want %v (%+v vs %+v)",
					hours, s.ID, pair[0], pair[1], gotTL, wantTL)
			}
		}
	}

	// Task 3: PAR — sliding-window refit vs from-scratch fit of the
	// same window, 1e-9 tolerance.
	for _, s := range pfx.Series {
		start, end, ok := a.PARWindow(s.ID)
		if !ok {
			continue
		}
		win := &timeseries.Series{ID: s.ID, Readings: s.Readings[start:end]}
		temp := &timeseries.Temperature{Values: pfx.Temperature.Values[start:end]}
		wantPAR, err := par.ComputeOrder(win, temp, par.DefaultOrder)
		if err != nil {
			t.Fatal(err)
		}
		var gotPAR *par.Result
		for _, r := range a.Profiles() {
			if r.ID == s.ID {
				gotPAR = r
			}
		}
		if gotPAR == nil {
			t.Fatalf("hour %d: household %d: PAR window reported but no profile", hours, s.ID)
		}
		for h := 0; h < timeseries.HoursPerDay; h++ {
			if !stats.ApproxEqual(gotPAR.Profile[h], wantPAR.Profile[h], stats.DefaultTol) {
				t.Fatalf("hour %d: household %d PAR profile[%d]: %v, want %v",
					hours, s.ID, h, gotPAR.Profile[h], wantPAR.Profile[h])
			}
		}
	}

	// Task 4: top-k — bit-identical match lists.
	wantTK, err := similarity.ComputeNaive(pfx, similarity.DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	gotTK, err := a.TopK()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTK) != len(wantTK) {
		t.Fatalf("hour %d: %d topk rows, want %d", hours, len(gotTK), len(wantTK))
	}
	for i, w := range wantTK {
		g := gotTK[i]
		if g.ID != w.ID {
			t.Fatalf("hour %d: topk row %d is for %d, want %d", hours, i, g.ID, w.ID)
		}
		if len(g.Matches) != len(w.Matches) {
			t.Fatalf("hour %d: household %d: %d matches, want %d", hours, w.ID, len(g.Matches), len(w.Matches))
		}
		for m, wm := range w.Matches {
			gm := g.Matches[m]
			if gm.ID != wm.ID || !stats.ExactEqual(gm.Score, wm.Score) {
				t.Fatalf("hour %d: household %d match %d: (%d, %v), want (%d, %v)",
					hours, w.ID, m, gm.ID, gm.Score, wm.ID, wm.Score)
			}
		}
	}
}

// approxOrBothInf treats equal infinities (degenerate 3-line break
// points) as equal.
func approxOrBothInf(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) || math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	return stats.ApproxEqual(a, b, stats.DefaultTol)
}

// TestOracleHourlyBatches streams the dataset one hour at a time and
// checks all four analytics at every completed day.
func TestOracleHourlyBatches(t *testing.T) {
	const days = 12
	ds := genDataset(t, 4, days)
	a := New(Config{WindowDays: 9})
	total := days * timeseries.HoursPerDay
	for h := 0; h < total; h++ {
		if err := a.Consume(readingsForHour(ds, h)); err != nil {
			t.Fatal(err)
		}
		if (h+1)%timeseries.HoursPerDay == 0 && (h+1)/timeseries.HoursPerDay >= 2 {
			oracleCheck(t, a, ds, h+1)
		}
	}
	st := a.Stats()
	if st.Readings != int64(4*total) {
		t.Errorf("readings = %d, want %d", st.Readings, 4*total)
	}
	if st.HistDeltas == 0 || st.HistRebuilds == 0 {
		t.Errorf("histogram stats: deltas %d rebuilds %d — both paths should fire", st.HistDeltas, st.HistRebuilds)
	}
	if st.PARRefits == 0 {
		t.Error("PAR never refit")
	}
	if st.PairsReused == 0 {
		// Every day-boundary TopK dirties all households; reuse shows up
		// in the no-change double-call below.
		if _, err := a.TopK(); err != nil {
			t.Fatal(err)
		}
		if a.Stats().PairsReused == 0 {
			t.Error("topk never reused a cached pair")
		}
	}
}

// TestOracleRandomInterleavings delivers the stream in deterministic
// pseudo-random batch shapes — ragged per-household progress, split
// batches, and duplicated redelivery — and checks the oracle at
// aligned points.
func TestOracleRandomInterleavings(t *testing.T) {
	const days = 10
	ds := genDataset(t, 3, days)
	rng := rand.New(rand.NewSource(42))
	a := New(Config{WindowDays: 8})
	total := days * timeseries.HoursPerDay

	// next[i] is how many hours of series i have been delivered.
	next := make([]int, len(ds.Series))
	aligned := func() int {
		m := next[0]
		for _, n := range next[1:] {
			if n < m {
				m = n
			}
		}
		return m
	}
	var last []core.Reading
	for aligned() < total {
		// Pick a household and deliver a random run of its hours, never
		// letting it outrun the temperature column contract (a household
		// may lead, but hours must stay contiguous per household and the
		// shared temp column only extends at the global frontier).
		i := rng.Intn(len(ds.Series))
		run := 1 + rng.Intn(30)
		batch := make([]core.Reading, 0, run)
		s := ds.Series[i]
		for r := 0; r < run && next[i] < total; r++ {
			h := next[i]
			batch = append(batch, core.Reading{
				ID: s.ID, Hour: h,
				Consumption: s.Readings[h],
				Temperature: ds.Temperature.Values[h],
			})
			next[i]++
		}
		if len(batch) == 0 {
			continue
		}
		if err := a.Consume(batch); err != nil {
			t.Fatal(err)
		}
		// Deterministic at-least-once delivery: every third batch is
		// redelivered, sometimes twice.
		if rng.Intn(3) == 0 {
			if err := a.Consume(batch); err != nil {
				t.Fatalf("redelivery: %v", err)
			}
		}
		if last != nil && rng.Intn(4) == 0 {
			if err := a.Consume(last); err != nil {
				t.Fatalf("stale redelivery: %v", err)
			}
		}
		last = batch
	}
	oracleCheck(t, a, ds, total)
	if dup := a.Stats().Duplicates; dup == 0 {
		t.Error("no duplicates recorded despite redelivery")
	}
}

// TestOracleFaultInjectedRetries drives Consume through a delivery loop
// that deterministically aborts mid-batch (a gap reading planted at a
// known position) and then retries the full batch, proving the
// maintainers absorb partially applied batches exactly once.
func TestOracleFaultInjectedRetries(t *testing.T) {
	const days = 9
	ds := genDataset(t, 3, days)
	a := New(Config{WindowDays: 8})
	total := days * timeseries.HoursPerDay
	for h := 0; h < total; h++ {
		batch := readingsForHour(ds, h)
		if h%5 == 2 {
			// Inject a gap in the middle of the batch: readings before it
			// apply, the batch errors, and the redelivery must complete
			// the rest exactly once.
			bad := append([]core.Reading{}, batch...)
			bad[1].Hour = h + 7
			err := a.Consume(bad)
			if err == nil || !strings.Contains(err.Error(), "gap") {
				t.Fatalf("hour %d: injected gap not detected: %v", h, err)
			}
		}
		if err := a.Consume(batch); err != nil {
			t.Fatal(err)
		}
	}
	oracleCheck(t, a, ds, total)
}

// TestThreeLineSkipsWhenPointsUnchanged checks the refit trigger: a
// reading landing in a bin below the population threshold leaves the
// percentile point set — and therefore the fit — untouched.
func TestThreeLineSkipsWhenPointsUnchanged(t *testing.T) {
	a := New(Config{})
	// One dense bin (well above MinBinPoints): a single percentile
	// point, not enough for any fit.
	batch := make([]core.Reading, 0, 8)
	for i := 0; i < 8; i++ {
		batch = append(batch, core.Reading{
			ID: 1, Hour: i, Consumption: 1 + float64(i)*0.1, Temperature: 5.4,
		})
	}
	if err := a.Consume(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ThreeLine(1); err == nil || !strings.Contains(err.Error(), "insufficient") {
		t.Fatalf("one bin: err = %v", err)
	}
	refits := a.Stats().TLRefits
	// A reading in a brand-new bin with only one value stays below
	// MinBinPoints: the point set cannot change.
	if err := a.Consume([]core.Reading{{ID: 1, Hour: 8, Consumption: 3, Temperature: 30.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ThreeLine(1); err == nil || !strings.Contains(err.Error(), "insufficient") {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.TLRefits != refits {
		t.Errorf("refits went %d -> %d for a point-set-preserving append", refits, st.TLRefits)
	}
	if st.TLSkips == 0 {
		t.Error("no skip recorded")
	}
}

// A reading at a NaN or infinite temperature joins no bin, in the
// maintained bins as in the batch fit: the maintained 3-line model is the
// batch model of the same series, which is the model of the series
// without those hours.
func TestThreeLineIgnoresNonFiniteTemperatures(t *testing.T) {
	const days = 30
	ds := genDataset(t, 2, days)
	temps := append([]float64(nil), ds.Temperature.Values...)
	ds = &timeseries.Dataset{Series: ds.Series, Temperature: &timeseries.Temperature{Values: temps}}
	// Enough of them that, binned, they would pass MinBinPoints.
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := 0; k < 6; k++ {
			temps[5+i+37*k] = bad
		}
	}
	a := New(Config{})
	for h := 0; h < days*timeseries.HoursPerDay; h++ {
		for _, r := range readingsForHour(ds, h) {
			a.applyThreeLine(r.ID, r.Consumption, r.Temperature)
		}
	}
	for _, s := range ds.Series {
		want, err := threeline.Compute(s, ds.Temperature)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.ThreeLine(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.TempMin < -60 || got.TempMax > 60 {
			t.Errorf("household %d: temperature range [%g, %g] includes a bin of non-finite hours", s.ID, got.TempMin, got.TempMax)
		}
		if !stats.ExactEqual(got.TempMin, want.TempMin) || !stats.ExactEqual(got.TempMax, want.TempMax) ||
			!approxOrBothInf(got.HeatingGradient, want.HeatingGradient) ||
			!approxOrBothInf(got.CoolingGradient, want.CoolingGradient) ||
			!approxOrBothInf(got.BaseLoad, want.BaseLoad) {
			t.Errorf("household %d: maintained %+v, batch %+v", s.ID, got, want)
		}
	}
}

// TestConsumeContractErrors exercises the validation paths.
func TestConsumeContractErrors(t *testing.T) {
	a := New(Config{})
	if err := a.Consume([]core.Reading{{ID: 1, Hour: -1}}); err == nil {
		t.Error("negative hour: want error")
	}
	if err := a.Consume([]core.Reading{{ID: 0, Hour: 0}}); err == nil {
		t.Error("zero id: want error")
	}
	if err := a.Consume([]core.Reading{{ID: 1, Hour: 3}}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap: err = %v", err)
	}
	if _, err := a.TopK(); err != similarity.ErrTooFew {
		t.Errorf("topk with no data: err = %v", err)
	}
}
