package similarity

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

func randomDataset(n, hours int, seedVal int64) *timeseries.Dataset {
	rng := rand.New(rand.NewSource(seedVal))
	series := make([]*timeseries.Series, n)
	for i := range series {
		r := make([]float64, hours)
		for j := range r {
			r[j] = rng.Float64() * 3
		}
		series[i] = &timeseries.Series{ID: timeseries.ID(i + 1), Readings: r}
	}
	return &timeseries.Dataset{Series: series,
		Temperature: &timeseries.Temperature{Values: make([]float64, hours)}}
}

func TestComputeBasic(t *testing.T) {
	d := randomDataset(20, 48, 1)
	rs, err := Compute(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 20 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if r.ID != d.Series[i].ID {
			t.Errorf("result %d ID = %d", i, r.ID)
		}
		if len(r.Matches) != 5 {
			t.Fatalf("consumer %d has %d matches, want 5", r.ID, len(r.Matches))
		}
		for j, m := range r.Matches {
			if m.ID == r.ID {
				t.Errorf("consumer %d matched itself", r.ID)
			}
			if j > 0 && m.Score > r.Matches[j-1].Score {
				t.Errorf("consumer %d matches not sorted: %v", r.ID, r.Matches)
			}
			if m.Score < -1-1e-9 || m.Score > 1+1e-9 {
				t.Errorf("score %g out of range", m.Score)
			}
		}
	}
}

func TestComputeFindsIdenticalSeries(t *testing.T) {
	d := randomDataset(10, 24, 2)
	// Make series 3 a scaled copy of series 7: cosine similarity 1.
	for j := range d.Series[2].Readings {
		d.Series[2].Readings[j] = 2 * d.Series[6].Readings[j]
	}
	rs, err := Compute(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs[2].Matches[0].ID != d.Series[6].ID {
		t.Errorf("series 3 best match = %d, want %d", rs[2].Matches[0].ID, d.Series[6].ID)
	}
	if math.Abs(rs[2].Matches[0].Score-1) > 1e-12 {
		t.Errorf("score = %g, want 1", rs[2].Matches[0].Score)
	}
}

func TestComputeParallelMatchesSequential(t *testing.T) {
	d := randomDataset(37, 72, 3)
	seq, err := Compute(d, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		par, err := ComputeParallel(d, DefaultK, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if len(seq[i].Matches) != len(par[i].Matches) {
				t.Fatalf("workers=%d consumer %d: %d vs %d matches",
					workers, seq[i].ID, len(seq[i].Matches), len(par[i].Matches))
			}
			for j := range seq[i].Matches {
				if seq[i].Matches[j] != par[i].Matches[j] {
					t.Fatalf("workers=%d consumer %d match %d: %+v vs %+v",
						workers, seq[i].ID, j, seq[i].Matches[j], par[i].Matches[j])
				}
			}
		}
	}
}

func TestComputeKLargerThanN(t *testing.T) {
	d := randomDataset(4, 24, 4)
	rs, err := Compute(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Matches) != 3 { // n-1 candidates
			t.Errorf("consumer %d: %d matches, want 3", r.ID, len(r.Matches))
		}
	}
}

func TestComputeErrors(t *testing.T) {
	d := randomDataset(5, 24, 5)
	if _, err := Compute(d, 0); err == nil {
		t.Error("k=0: want error")
	}
	single := randomDataset(1, 24, 6)
	if _, err := Compute(single, 1); err != ErrTooFew {
		t.Errorf("single series err = %v, want ErrTooFew", err)
	}
	// Mismatched lengths.
	bad := randomDataset(3, 24, 7)
	bad.Series[1].Readings = bad.Series[1].Readings[:12]
	if _, err := Compute(bad, 1); err == nil {
		t.Error("mismatched lengths: want error")
	}
}

func TestEmptySeriesError(t *testing.T) {
	// Zero-LENGTH series are a validation error (ErrEmptySeries), distinct
	// from zero-NORM series which score 0 against everything (see
	// TestZeroSeriesSimilarToNothing). Both public entry points must
	// return the sentinel, not silently emit empty match lists.
	d := randomDataset(3, 0, 10)
	if _, err := Compute(d, 1); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("Compute err = %v, want ErrEmptySeries", err)
	}
	if _, err := ComputeNaive(d, 1); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("ComputeNaive err = %v, want ErrEmptySeries", err)
	}
	if _, err := ComputeParallel(d, 1, 4); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("ComputeParallel err = %v, want ErrEmptySeries", err)
	}
}

func TestZeroSeriesSimilarToNothing(t *testing.T) {
	d := randomDataset(5, 24, 8)
	for j := range d.Series[0].Readings {
		d.Series[0].Readings[j] = 0
	}
	rs, err := Compute(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rs[0].Matches {
		if m.Score != 0 {
			t.Errorf("zero series got score %g", m.Score)
		}
	}
}

func TestSymmetryOfScores(t *testing.T) {
	d := randomDataset(8, 24, 9)
	rs, err := Compute(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	// score(a -> b) must equal score(b -> a) when both appear.
	score := make(map[[2]timeseries.ID]float64)
	for _, r := range rs {
		for _, m := range r.Matches {
			score[[2]timeseries.ID{r.ID, m.ID}] = m.Score
		}
	}
	for k, v := range score {
		if back, ok := score[[2]timeseries.ID{k[1], k[0]}]; ok {
			if math.Abs(v-back) > 1e-12 {
				t.Errorf("asymmetric: %v=%g vs %g", k, v, back)
			}
		}
	}
}

// TestNaNScoresRankLast plants one NaN reading, which a FailFast run
// hands to the kernel: every score of that consumer is NaN. NaN ranks
// below every number, so the result is the same at every worker count,
// the NaN consumer appears in no other consumer's list, its own list is
// all NaN in ID order, and the rankings agree with the scalar oracle.
// Before NaN was ordered, one NaN broke the heap of every list it
// reached, differently per worker count.
func TestNaNScoresRankLast(t *testing.T) {
	d := randomDataset(67, 48, 5)
	d.Series[3].Readings[7] = math.NaN()
	nanID := d.Series[3].ID
	sameMatch := func(a, b timeseries.Match) bool {
		return a.ID == b.ID && (a.Score == b.Score || math.IsNaN(a.Score) && math.IsNaN(b.Score))
	}
	seq, err := Compute(d, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par, err := ComputeParallel(d, DefaultK, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			for j := range seq[i].Matches {
				if !sameMatch(seq[i].Matches[j], par[i].Matches[j]) {
					t.Fatalf("workers=%d consumer %d match %d: %+v, W=1 %+v",
						workers, seq[i].ID, j, par[i].Matches[j], seq[i].Matches[j])
				}
			}
		}
	}
	naive, err := ComputeNaive(d, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range seq {
		for j, m := range r.Matches {
			nm := naive[i].Matches[j]
			if m.ID != nm.ID || math.IsNaN(m.Score) != math.IsNaN(nm.Score) ||
				math.Abs(m.Score-nm.Score) > 1e-12 {
				t.Fatalf("consumer %d match %d: %+v, naive %+v", r.ID, j, m, nm)
			}
			if r.ID == nanID {
				if !math.IsNaN(m.Score) || (j > 0 && m.ID < r.Matches[j-1].ID) {
					t.Fatalf("NaN consumer's match %d = %+v, want NaN scores in ID order", j, m)
				}
			} else if m.ID == nanID {
				t.Fatalf("consumer %d lists the NaN consumer at %d", r.ID, j)
			}
		}
	}
}

func TestPairScore(t *testing.T) {
	a := &timeseries.Series{ID: 1, Readings: []float64{1, 0}}
	b := &timeseries.Series{ID: 2, Readings: []float64{0, 1}}
	got, err := PairScore(a, b)
	if err != nil || got != 0 {
		t.Errorf("PairScore = %g, %v", got, err)
	}
}
