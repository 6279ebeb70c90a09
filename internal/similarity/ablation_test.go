package similarity

import (
	"errors"
	"math"
	"testing"
)

// TestBlockedMatchesNaive is the ablation test for the blocked engine:
// across seeded random datasets of odd sizes — n=1..33 so every
// query/candidate block has a ragged tail, and lengths not divisible by
// the kernels' unroll widths — Compute (blocked, tiled, packed matrix)
// must produce the same top-k IDs as ComputeNaive (scalar per-pair
// oracle) with scores agreeing to 1e-12. n=1 pins the shared ErrTooFew
// behaviour.
func TestBlockedMatchesNaive(t *testing.T) {
	seedVal := int64(77)
	for n := 1; n <= 33; n += 2 {
		// Smallest length is 3, not 1: with length-1 series every pair of
		// positive scalars has cosine exactly 1, so the whole ranking is
		// one giant tie and the two paths legitimately break it on ±1ulp
		// rounding differences.
		for _, hours := range []int{3, 7, 26, 63, 95} {
			seedVal++
			d := randomDataset(n, hours, seedVal)
			blocked, errB := Compute(d, 5)
			naive, errN := ComputeNaive(d, 5)
			if n < 2 {
				if !errors.Is(errB, ErrTooFew) || !errors.Is(errN, ErrTooFew) {
					t.Fatalf("n=%d: errs = %v / %v, want ErrTooFew from both", n, errB, errN)
				}
				continue
			}
			if errB != nil || errN != nil {
				t.Fatalf("n=%d hours=%d: errs = %v / %v", n, hours, errB, errN)
			}
			if len(blocked) != len(naive) {
				t.Fatalf("n=%d hours=%d: %d vs %d results", n, hours, len(blocked), len(naive))
			}
			for i := range naive {
				b, nv := blocked[i], naive[i]
				if b.ID != nv.ID {
					t.Fatalf("n=%d hours=%d result %d: ID %d vs %d", n, hours, i, b.ID, nv.ID)
				}
				if len(b.Matches) != len(nv.Matches) {
					t.Fatalf("n=%d hours=%d consumer %d: %d vs %d matches",
						n, hours, b.ID, len(b.Matches), len(nv.Matches))
				}
				for j := range nv.Matches {
					bm, nm := b.Matches[j], nv.Matches[j]
					if bm.ID != nm.ID {
						t.Fatalf("n=%d hours=%d consumer %d match %d: ID %d vs %d",
							n, hours, b.ID, j, bm.ID, nm.ID)
					}
					if math.Abs(bm.Score-nm.Score) > 1e-12 {
						t.Fatalf("n=%d hours=%d consumer %d match %d: score %g vs %g",
							n, hours, b.ID, j, bm.Score, nm.Score)
					}
				}
			}
		}
	}
}

// --- Ablation benchmarks: blocked engine vs scalar oracle -------------

func BenchmarkSimilarityBlocked(b *testing.B) {
	d := randomDataset(60, 720, 1)
	if _, err := Compute(d, 10); err != nil { // build + cache the packing
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(d, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimilarityNaive(b *testing.B) {
	d := randomDataset(60, 720, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeNaive(d, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimilarityBlockedParallel(b *testing.B) {
	d := randomDataset(60, 720, 1)
	if _, err := Compute(d, 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeParallel(d, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}
