package similarity_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// generated returns consumers × days of generator data, built the way
// the benchmark builds its inputs: a 20-household seed, one flat-load
// consumer in ten, readings rounded to Wh.
func generated(t testing.TB, seedValue int64, consumers, days int) *timeseries.Dataset {
	t.Helper()
	seedDS, err := seed.Generate(seed.Config{Consumers: 20, Days: days, Seed: seedValue})
	if err != nil {
		t.Fatal(err)
	}
	cfg := generator.DefaultConfig()
	cfg.Seed = seedValue
	cfg.FlatRate = 0.1
	gen, err := generator.New(seedDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hours := len(seedDS.Temperature.Values)
	rows := make([]float64, consumers*hours)
	ids := make([]timeseries.ID, consumers)
	for i := range ids {
		row := rows[i*hours : (i+1)*hours]
		if err := gen.SeriesInto(row, seedDS.Temperature); err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			row[j] = math.Round(v*1000) / 1000
		}
		ids[i] = timeseries.ID(i + 1)
	}
	d, err := timeseries.PackedDataset(ids, rows, seedDS.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hostile returns the first n consumers of d cut to length readings,
// copied, with the consumers no bound may skip mixed in: a NaN, +Inf
// and -Inf reading, a flat and an all-zero consumer, a negated one,
// an exact duplicate (a tie of score 1) and consumers scaled by 1e-300
// and 1e300.
func hostile(d *timeseries.Dataset, n, length int) *timeseries.Dataset {
	out := &timeseries.Dataset{Series: make([]*timeseries.Series, n)}
	for i := range out.Series {
		src := d.Series[i]
		out.Series[i] = &timeseries.Series{ID: src.ID, Readings: append([]float64(nil), src.Readings[:length]...)}
	}
	edit := func(i int, f func(r []float64)) {
		if i < n {
			f(out.Series[i].Readings)
		}
	}
	edit(1, func(r []float64) { r[length/3] = math.NaN() })
	edit(3, func(r []float64) { r[length/2] = math.Inf(1) })
	edit(5, func(r []float64) { r[0] = math.Inf(-1) })
	edit(6, func(r []float64) {
		for j := range r {
			r[j] = 0.5
		}
	})
	edit(8, func(r []float64) { clear(r) })
	edit(40, func(r []float64) {
		for j := range r {
			r[j] = -r[j]
		}
	})
	edit(41, func(r []float64) { copy(r, out.Series[12].Readings) })
	edit(60, func(r []float64) {
		for j := range r {
			r[j] *= 1e-300
		}
	})
	edit(77, func(r []float64) {
		for j := range r {
			r[j] *= 1e300
		}
	})
	return out
}

// allPairsScores scores every pair (q, c), q < c, with a 1×1
// stats.CosineTile over the dataset's packing, and gives (c, q) the
// same score (stats holds the kernel symmetric bit for bit): the
// oracle's scores.
func allPairsScores(t testing.TB, d *timeseries.Dataset) []float64 {
	t.Helper()
	m, err := d.Flat()
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	scores := make([]float64, n*n)
	for q := range n {
		for c := q + 1; c < n; c++ {
			stats.CosineTile(scores[q*n+c:q*n+c+1], m.Data(), m.Len(), m.InvNorms(), []int{q}, []int{c})
			scores[c*n+q] = scores[q*n+c]
		}
	}
	return scores
}

// oracle is the top-k of every row over all of its pairs' scores.
func oracle(d *timeseries.Dataset, scores []float64, k int) []*similarity.Result {
	n := len(d.Series)
	out := make([]*similarity.Result, n)
	for q := range n {
		tk := timeseries.NewTopK(k)
		for c := range n {
			if c != q {
				tk.Add(d.Series[c].ID, scores[q*n+c])
			}
		}
		out[q] = &similarity.Result{ID: d.Series[q].ID, Matches: tk.Results()}
	}
	return out
}

// sameResults reports the first difference between two outputs, bit
// for bit, with every NaN equal to every other.
func sameResults(got, want []*similarity.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
			return fmt.Errorf("result %d: ID %d with %d matches, want ID %d with %d", i, g.ID, len(g.Matches), w.ID, len(w.Matches))
		}
		for j := range w.Matches {
			gm, wm := g.Matches[j], w.Matches[j]
			same := math.Float64bits(gm.Score) == math.Float64bits(wm.Score) ||
				(math.IsNaN(gm.Score) && math.IsNaN(wm.Score))
			if gm.ID != wm.ID || !same {
				return fmt.Errorf("consumer %d match %d: %d %g (%#x), want %d %g (%#x)", w.ID, j,
					gm.ID, gm.Score, math.Float64bits(gm.Score), wm.ID, wm.Score, math.Float64bits(wm.Score))
			}
		}
	}
	return nil
}

// TestPrunedMatchesAllPairsOracle holds ComputeParallel to the all-pairs
// oracle bit for bit, at 1, 2 and 4 workers, k of 1, 10 and n−1, n of
// 2, 7, 9, 96 and 640 generator consumers with NaN, ±Inf, flat,
// all-zero, negative, duplicate, tiny and huge ones mixed in, at the
// benchmark's 8760 readings and at a length that leaves a tail shorter
// than a segment (8755 = 729·12 + 7). It also requires that the bound skipped tile pairs on
// the large inputs, so that the skips are what is being held exact.
func TestPrunedMatchesAllPairsOracle(t *testing.T) {
	base := generated(t, 5, 640, 365)
	for _, length := range []int{8760, 8755} {
		for _, n := range []int{2, 7, 9, 96, 640} {
			if n == 640 && length != 8760 {
				continue // the oracle's cost: the tail is held at n ≤ 96
			}
			d := hostile(base, n, length)
			scores := allPairsScores(t, d)
			for _, k := range []int{1, 10, n - 1} {
				want := oracle(d, scores, k)
				for _, w := range []int{1, 2, 4} {
					got, err := similarity.ComputeParallel(d, k, w)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResults(got, want); err != nil {
						t.Fatalf("n=%d len=%d k=%d W=%d: %v", n, length, k, w, err)
					}
				}
				if n < 96 || k == n-1 {
					continue
				}
				if _, skipped, err := similarity.ComputePruned(d, k, 1, similarity.Segment, similarity.Band); err != nil || skipped == 0 {
					t.Errorf("n=%d len=%d k=%d: %d tile pairs skipped (%v), want some", n, length, k, skipped, err)
				}
			}
		}
	}
}

// gateSkipped is the number of the 3240 tile pairs of 640 generator
// consumers × 365 days (seed 7, k = 10) that the bound skips at the
// engine's segment and band. The count is exact: the thresholds are
// fixed before the first bound is taken, so it depends on no schedule.
const gateSkipped = 2531

// TestPrunedSkipsGateCount pins the skipped tile-pair count on the
// benchmark's shape of data, at one and at four workers, and holds it to
// the gate of skipping at least 40 % of the tile pairs.
func TestPrunedSkipsGateCount(t *testing.T) {
	d := generated(t, 7, 640, 365)
	const tiles = 640 / 8
	for _, w := range []int{1, 4} {
		_, skipped, err := similarity.ComputePruned(d, 10, w, similarity.Segment, similarity.Band)
		if err != nil {
			t.Fatal(err)
		}
		if skipped != gateSkipped {
			t.Errorf("W=%d: %d tile pairs skipped, want %d", w, skipped, gateSkipped)
		}
		if share := float64(skipped) / (tiles * (tiles + 1) / 2); share < 0.4 {
			t.Errorf("W=%d: %.1f %% of tile pairs skipped, the gate is 40 %%", w, 100*share)
		}
	}
}
