package similarity

import (
	"reflect"
	"testing"
)

// TestComputeParallelRace is the race-regression test for the blocked
// cosine engine: workers pull query blocks off the shared atomic
// counter in sched.Run, read the shared FlatMatrix, and write disjoint
// out[i] slots through per-worker score tiles. Under -race this
// validates the sharing; the equality check pins parallel == sequential
// determinism (per-pair scores depend only on the candidate tiling, so
// they are bit-identical at any worker count).
func TestComputeParallelRace(t *testing.T) {
	d := randomDataset(32, 48, 7)
	seq, err := Compute(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ComputeParallel(d, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel cosine results differ from sequential")
	}
}

// TestComputeParallelRaceOddShape stresses the dynamic scheduler with
// far more workers than query blocks (n=29, queryBlock=8 -> 4 blocks,
// 16 workers) and a length not divisible by the kernel unroll widths,
// so block claiming, worker capping, and ragged tails all race under
// -race at once.
func TestComputeParallelRaceOddShape(t *testing.T) {
	d := randomDataset(29, 53, 11)
	seq, err := Compute(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		par, err := ComputeParallel(d, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: parallel results differ from sequential", workers)
		}
	}
}
