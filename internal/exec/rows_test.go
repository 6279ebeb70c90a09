package exec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// TestStreamingResultsKeepNoRows: the partition loop hands a cursor that
// takes rows the rows of the block it emitted, so nothing a run returns
// may still point into a row a cursor yielded. After each run every such
// row is overwritten with NaN, and the histogram, 3-line and PAR results
// must still be the reference run's bit for bit, at one and two workers
// (two partitions, or one whose blocks compute on both kernel slots),
// under every fail policy, over a NaN-holed consumer (and, where the
// policy contains it, one that fails permanently). The cursors allocate
// one block of rows per partition, and one more for a series the fail
// policy drops while there is no row to hand back yet: every later
// series is decoded into a row handed back.
func TestStreamingResultsKeepNoRows(t *testing.T) {
	ds := makeDataset(t, 40, 14)
	ds.Series[21].Readings[7], ds.Series[21].Readings[100] = math.NaN(), math.NaN()
	onePart := func(n, _ int) [][]int { return rangeParts(n, 1) }
	for _, task := range streamingTasks {
		for _, c := range []struct {
			name    string
			workers int
			parts   func(n, max int) [][]int
		}{{"W1", 1, nil}, {"W2", 2, nil}, {"W2_one_partition", 2, onePart}} {
			workers := c.workers
			for _, policy := range []core.FailPolicy{core.FailFast, core.Quarantine, core.Repair} {
				t.Run(fmt.Sprintf("%v/%s/%v", task, c.name, policy), func(t *testing.T) {
					var mu sync.Mutex
					var yielded [][]float64
					src := &drainSource{ds: ds, parts: c.parts, record: func(row []float64) {
						mu.Lock()
						yielded = append(yielded, row)
						mu.Unlock()
					}}
					if policy != core.FailFast {
						src.fail = map[timeseries.ID]bool{ds.Series[30].ID: true}
					}
					spec := core.Spec{Task: task, Workers: workers, FailPolicy: policy}
					kept, failed, _ := drainOracle(src, workers, policy)
					want, wantErr := core.RunReference(kept, spec)
					got, err := Run(src, spec)
					if errText(err) != errText(wantErr) {
						t.Fatalf("err %q, want %q", errText(err), errText(wantErr))
					}
					if err != nil {
						return
					}
					for _, row := range yielded {
						for j := range row {
							row[j] = math.NaN()
						}
					}
					if !bytes.Equal(resultBits(t, got), resultBits(t, want)) {
						t.Fatal("the results differ from the reference run's")
					}
					if len(got.Failed) != len(failed) {
						t.Fatalf("failed %v, want %v", got.Failed, failed)
					}
					for i, f := range failed {
						if g := got.Failed[i]; g.ID != f.ID || g.Phase != f.Phase || g.Err.Error() != f.Err.Error() {
							t.Fatalf("failure %d is %v, want %v", i, g, f)
						}
					}
					if fresh, limit := src.fresh.Load(), int64(block*workers+1); fresh > limit {
						t.Errorf("the cursors allocated %d rows, want at most %d", fresh, limit)
					}
				})
			}
		}
	}
}

// resultBits encodes the per-consumer results of a run, every float as
// its bits (NaN included, which == cannot compare).
func resultBits(t *testing.T, r *core.Results) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	for _, v := range []any{r.Histograms, r.ThreeLines, r.Profiles} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}
