package timeseries

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(3)
	for i, score := range []float64{0.1, 0.9, 0.5, 0.7, 0.3} {
		tk.Add(ID(i), score)
	}
	got := tk.Results()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantScores := []float64{0.9, 0.7, 0.5}
	wantIDs := []ID{1, 3, 2}
	for i := range wantScores {
		if got[i].Score != wantScores[i] || got[i].ID != wantIDs[i] {
			t.Errorf("result %d = %+v, want {%d %g}", i, got[i], wantIDs[i], wantScores[i])
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Add(1, 0.5)
	tk.Add(2, 0.8)
	got := tk.Results()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Errorf("results = %+v", got)
	}
	if tk.Len() != 2 {
		t.Errorf("Len = %d", tk.Len())
	}
}

func TestTopKTieBreaksTowardLowerID(t *testing.T) {
	tk := NewTopK(2)
	tk.Add(5, 0.5)
	tk.Add(3, 0.5)
	tk.Add(9, 0.5)
	got := tk.Results()
	if got[0].ID != 3 || got[1].ID != 5 {
		t.Errorf("tie break results = %+v", got)
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) should panic")
		}
	}()
	NewTopK(0)
}

// TestTopKMatchesSortOracle holds TopK to a full sort, with ties forced
// and, in odd trials, NaN scores among the candidates: a NaN ranks
// below every number and NaNs among themselves by ID.
func TestTopKMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300) + 1
		k := rng.Intn(20) + 1
		type cand struct {
			id    ID
			score float64
		}
		cands := make([]cand, n)
		tk := NewTopK(k)
		for i := range cands {
			cands[i] = cand{id: ID(i), score: float64(rng.Intn(50))} // force ties
			if trial%2 == 1 && rng.Intn(4) == 0 {
				cands[i].score = math.NaN()
			}
			tk.Add(cands[i].id, cands[i].score)
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if an, bn := math.IsNaN(a.score), math.IsNaN(b.score); an || bn {
				if an != bn {
					return bn
				}
				return a.id < b.id
			}
			if a.score != b.score {
				return a.score > b.score
			}
			return a.id < b.id
		})
		want := cands
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			sameScore := got[i].Score == want[i].score || math.IsNaN(got[i].Score) && math.IsNaN(want[i].score)
			if got[i].ID != want[i].id || !sameScore {
				t.Fatalf("trial %d pos %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
