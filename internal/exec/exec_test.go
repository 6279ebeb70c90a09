package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func makeDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunMatchesReference(t *testing.T) {
	ds := makeDataset(t, 6, 30)
	for _, task := range core.Tasks {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v_w%d", task, workers), func(t *testing.T) {
				spec := core.Spec{Task: task, K: 3, Workers: workers}
				got, err := Run(NewDatasetSource(ds), spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.RunReference(ds, spec)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count() != want.Count() {
					t.Fatalf("count = %d, want %d", got.Count(), want.Count())
				}
				compareResults(t, got, want)
			})
		}
	}

	// Several runs at once over one shared dataset, the shape a serving
	// layer would produce: every goroutine of every run must treat the
	// dataset as read-only (go test -race checks that).
	t.Run("four_callers_one_dataset", func(t *testing.T) {
		spec := core.Spec{Task: core.TaskHistogram, Workers: 4}
		want, err := core.RunReference(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]*core.Results, 4)
		errs := make([]error, 4)
		for c := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[c], errs[c] = Run(NewDatasetSource(ds), spec)
			}()
		}
		wg.Wait()
		for c := range got {
			if errs[c] != nil {
				t.Fatalf("caller %d: %v", c, errs[c])
			}
			compareResults(t, got[c], want)
		}
	})
}

// compareResults checks bit-identical agreement with the reference.
func compareResults(t *testing.T, got, want *core.Results) {
	t.Helper()
	cursortest.CompareResults(t, got, want)
}

func TestRunPopulatesPhases(t *testing.T) {
	ds := makeDataset(t, 5, 20)
	res, err := Run(NewDatasetSource(ds), core.Spec{Task: core.TaskThreeLine})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases
	if ph == nil {
		t.Fatal("Phases == nil")
	}
	checkRows(t, ph, 5)
	wantBytes := int64(5 * 20 * 24 * 8)
	if ph.Extract.Bytes != wantBytes {
		t.Errorf("extract bytes = %d, want %d", ph.Extract.Bytes, wantBytes)
	}
	if ph.T1Quantiles+ph.T2Regression+ph.T3Adjust <= 0 {
		t.Error("3-line sub-phase timings are all zero")
	}
	if ph.Total() < ph.Compute.Wall {
		t.Errorf("Total %v < Compute %v", ph.Total(), ph.Compute.Wall)
	}
}

func TestRunSimilarityPhases(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	res, err := Run(NewDatasetSource(ds), core.Spec{Task: core.TaskSimilarity, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == nil || res.Phases.Extract.Rows != 6 || res.Phases.Emit.Rows != 6 {
		t.Fatalf("similarity phases = %+v", res.Phases)
	}
	if len(res.Similar) != 6 {
		t.Fatalf("similar results = %d", len(res.Similar))
	}
}

func TestRunUnknownTask(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	if _, err := Run(NewDatasetSource(ds), core.Spec{Task: core.Task(99)}); err == nil {
		t.Fatal("unknown task did not error")
	}
}

// TestDatasetSourcePartitionConformance holds an in-memory dataset's
// range shards to the partition contract, and each shard to the cursor
// contract.
func TestDatasetSourcePartitionConformance(t *testing.T) {
	ds := makeDataset(t, 7, 10)
	cursortest.RunPartitioned(t, cursortest.IDs(ds), func(t *testing.T) core.PartitionedSource {
		return NewDatasetSource(ds)
	})
}

func TestLazyCursorConformance(t *testing.T) {
	ds := makeDataset(t, 5, 10)
	cursortest.Run(t, func(t *testing.T) core.Cursor {
		return core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
			return ds.Series, nil
		}, nil)
	})
}

func TestLazyCursorLoadOnceAndOnClose(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	loads, closes := 0, 0
	cur := core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
		loads++
		return ds.Series, nil
	}, func() { closes++ })
	for i := 0; i < 3; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cur.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if closes != 1 {
		t.Fatalf("onClose ran %d times, want 1", closes)
	}
}

// failingSource returns an error from NewCursors.
type failingSource struct{ err error }

func (f failingSource) NewCursors(int) ([]core.Cursor, error)         { return nil, f.err }
func (f failingSource) Temperature() (*timeseries.Temperature, error) { return nil, f.err }

func TestRunPropagatesCursorError(t *testing.T) {
	want := errors.New("boom")
	if _, err := Run(failingSource{err: want}, core.Spec{Task: core.TaskHistogram}); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// A cursor error that is not a core.ConsumerError means the storage
// itself is broken, not one series: it ends the run under every policy,
// not only FailFast, and nothing lands on Results.Failed.
func TestNonConsumerErrorIsFatalUnderEveryPolicy(t *testing.T) {
	ds := makeDataset(t, 10, 20)
	parts := failingPartSource{ds: ds, failAt: 2}
	for _, policy := range []core.FailPolicy{core.Quarantine, core.Repair} {
		for _, workers := range []int{1, 4} {
			_, err := Run(parts, core.Spec{Task: core.TaskHistogram, Workers: workers, FailPolicy: policy})
			if !errors.Is(err, errBoom) {
				t.Fatalf("%v W=%d: err = %v, want errBoom", policy, workers, err)
			}
		}
	}
}
