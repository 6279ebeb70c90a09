package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// refConsumers is how many leading consumers every task run is checked
// against core.RunReference, bit for bit.
const refConsumers = 64

// simSampled is how many consumers' similarity matches are checked
// against a brute-force search over the full set.
const simSampled = 16

// simTol is how far a blocked-kernel cosine score may sit from the
// scalar per-pair score; the kernels accumulate in different orders.
const simTol = 1e-9

// sameBits is the one float comparison the benchmark makes: equal bit
// patterns, so a NaN equals the same NaN and -0 differs from +0.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameModel(a, b threeline.Model) bool {
	return a.Degenerate == b.Degenerate &&
		sameFloats(
			[]float64{a.Break1, a.Break2, a.SSE, a.Heating.Slope, a.Heating.Intercept,
				a.Base.Slope, a.Base.Intercept, a.Cooling.Slope, a.Cooling.Intercept},
			[]float64{b.Break1, b.Break2, b.SSE, b.Heating.Slope, b.Heating.Intercept,
				b.Base.Slope, b.Base.Intercept, b.Cooling.Slope, b.Cooling.Intercept})
}

func sameThreeLine(a, b *threeline.Result) bool {
	return a.ID == b.ID && sameModel(a.High, b.High) && sameModel(a.Low, b.Low) &&
		sameFloats(
			[]float64{a.HeatingGradient, a.CoolingGradient, a.BaseLoad, a.TempMin, a.TempMax},
			[]float64{b.HeatingGradient, b.CoolingGradient, b.BaseLoad, b.TempMin, b.TempMax})
}

func sameProfile(a, b *par.Result) bool {
	if a.ID != b.ID || !sameFloats(a.Profile[:], b.Profile[:]) {
		return false
	}
	for h := range a.Hours {
		x, y := a.Hours[h], b.Hours[h]
		if x.Fallback != y.Fallback || !sameFloats(x.ARCoef, y.ARCoef) ||
			!sameFloats([]float64{x.TempCoef, x.Intercept, x.R2}, []float64{y.TempCoef, y.Intercept, y.R2}) {
			return false
		}
	}
	return true
}

// checkScan verifies one per-consumer task run: no consumer was
// quarantined, every consumer produced a result, and the first
// refConsumers results carry exactly the reference's bits.
func checkScan(got, ref *core.Results, consumers int) error {
	if len(got.Failed) > 0 {
		return fmt.Errorf("%d consumers quarantined, first: %s", len(got.Failed), got.Failed[0])
	}
	if got.Count() != consumers {
		return fmt.Errorf("%d results, want %d", got.Count(), consumers)
	}
	switch ref.Task {
	case core.TaskHistogram:
		for i, w := range ref.Histograms {
			g := got.Histograms[i]
			if g.ID != w.ID || !sameBits(g.Histogram.Min, w.Histogram.Min) ||
				!sameBits(g.Histogram.Max, w.Histogram.Max) ||
				!sameCounts(g.Histogram.Counts, w.Histogram.Counts) {
				return fmt.Errorf("histogram of consumer %d differs from the reference", w.ID)
			}
		}
	case core.TaskThreeLine:
		for i, w := range ref.ThreeLines {
			if !sameThreeLine(got.ThreeLines[i], w) {
				return fmt.Errorf("3-line model of consumer %d differs from the reference", w.ID)
			}
		}
	case core.TaskPAR:
		for i, w := range ref.Profiles {
			if !sameProfile(got.Profiles[i], w) {
				return fmt.Errorf("PAR profile of consumer %d differs from the reference", w.ID)
			}
		}
	default:
		return fmt.Errorf("no reference check for task %v", ref.Task)
	}
	return nil
}

func sameCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSimilar verifies a similarity run against brute force: for
// simSampled consumers spread over the set, every other consumer is
// scored with the scalar per-pair kernel and ranked. Rank j of the
// engine's list must carry rank j's brute-force score, and the consumer
// named there must really score that against the query; both to within
// simTol, so that consumers tied in score (two flat loads have cosine
// exactly 1) may swap places.
func checkSimilar(got *core.Results, series []*timeseries.Series, k int) error {
	n := len(series)
	if len(got.Failed) > 0 || len(got.Similar) != n {
		return fmt.Errorf("%d results and %d quarantined, want %d and 0", len(got.Similar), len(got.Failed), n)
	}
	for s := 0; s < simSampled && s < n; s++ {
		q := s * n / min(simSampled, n)
		res := got.Similar[q]
		if res.ID != series[q].ID {
			return fmt.Errorf("result %d is for consumer %d, want %d", q, res.ID, series[q].ID)
		}
		scores := make(map[timeseries.ID]float64, n-1)
		ranked := make([]float64, 0, n-1)
		for i, o := range series {
			if i == q {
				continue
			}
			sc, err := similarity.PairScore(series[q], o)
			if err != nil {
				return fmt.Errorf("brute force for consumer %d: %w", res.ID, err)
			}
			scores[o.ID] = sc
			ranked = append(ranked, sc)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ranked)))
		if want := min(k, len(ranked)); len(res.Matches) != want {
			return fmt.Errorf("consumer %d has %d matches, want %d", res.ID, len(res.Matches), want)
		}
		for j, m := range res.Matches {
			own, ok := scores[m.ID]
			if !ok || math.Abs(m.Score-ranked[j]) > simTol || math.Abs(own-m.Score) > simTol {
				return fmt.Errorf("consumer %d match %d (consumer %d, score %v) is not brute force's rank %d (score %v)",
					res.ID, j, m.ID, m.Score, j, ranked[j])
			}
		}
	}
	return nil
}

// checkTotals verifies that every household of a live store holds
// exactly wantHours readings: the sealed base plus every acked hour,
// no more and no fewer.
func checkTotals(got *core.Results, households, wantHours int) error {
	if len(got.Failed) > 0 || len(got.Histograms) != households {
		return fmt.Errorf("%d households and %d quarantined, want %d and 0", len(got.Histograms), len(got.Failed), households)
	}
	for _, h := range got.Histograms {
		if h.Histogram.Total() != int64(wantHours) {
			return fmt.Errorf("household %d holds %d readings, want %d", h.ID, h.Histogram.Total(), wantHours)
		}
	}
	return nil
}
