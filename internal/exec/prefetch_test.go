package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// partitionedSource is the minimal PartitionedSource for pipeline tests:
// an in-memory dataset sharded either into contiguous ID ranges (like
// the storage engines) or round-robin (like the cluster engines' hash
// partitions, whose ID ranges interleave).
type partitionedSource struct {
	ds          *timeseries.Dataset
	roundRobin  bool
	cursorCalls *int // increments on NewCursor (serial path probe)
	partCalls   *int // increments on NewCursors
	maxParts    int  // cap on partitions handed out (0 = no cap)
}

func (s partitionedSource) NewCursor() (core.Cursor, error) {
	if s.cursorCalls != nil {
		*s.cursorCalls++
	}
	return core.NewDatasetCursor(s.ds), nil
}

func (s partitionedSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

func (s partitionedSource) NewCursors(max int) ([]core.Cursor, error) {
	if s.partCalls != nil {
		*s.partCalls++
	}
	if s.maxParts > 0 && max > s.maxParts {
		max = s.maxParts
	}
	var parts [][]*timeseries.Series
	if s.roundRobin {
		n := max
		if n > len(s.ds.Series) {
			n = len(s.ds.Series)
		}
		parts = make([][]*timeseries.Series, n)
		for i, ser := range s.ds.Series {
			parts[i%n] = append(parts[i%n], ser)
		}
	} else {
		for _, r := range core.PartitionRanges(len(s.ds.Series), max) {
			parts = append(parts, s.ds.Series[r[0]:r[1]])
		}
	}
	curs := make([]core.Cursor, len(parts))
	for i, p := range parts {
		p := p
		curs[i] = core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
			return p, nil
		}, nil)
	}
	return curs, nil
}

var streamingTasks = []core.Task{core.TaskHistogram, core.TaskThreeLine, core.TaskPAR}

// TestPrefetchMatchesReference pins the overlapped path bit-identical to
// the oracle for contiguous and interleaved (hash-style) partitions.
func TestPrefetchMatchesReference(t *testing.T) {
	ds := makeDataset(t, 11, 30)
	for _, rr := range []bool{false, true} {
		for _, task := range streamingTasks {
			for _, workers := range []int{2, 4, 7} {
				name := fmt.Sprintf("%v_w%d_rr%v", task, workers, rr)
				t.Run(name, func(t *testing.T) {
					spec := core.Spec{Task: task, Workers: workers}
					src := partitionedSource{ds: ds, roundRobin: rr}
					got, err := Run(src, spec)
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
	}
}

// checkRows requires exact per-stage row counters.
func checkRows(t *testing.T, ph *core.Phases, want int64) {
	t.Helper()
	if ph.Extract.Rows != want || ph.Compute.Rows != want || ph.Emit.Rows != want {
		t.Errorf("row counters = %d/%d/%d, want %d each",
			ph.Extract.Rows, ph.Compute.Rows, ph.Emit.Rows, want)
	}
}

// TestOneWorkerRunsInline pins what Workers: 1 promises: the run never
// asks for partitions, and because extract, compute and emit alternate on
// the calling goroutine, their summed busy time cannot exceed the wall
// time around Run.
func TestOneWorkerRunsInline(t *testing.T) {
	ds := makeDataset(t, 12, 30)
	var partCalls int
	for name, src := range map[string]Source{
		"plain":       NewDatasetSource(ds),
		"partitioned": partitionedSource{ds: ds, partCalls: &partCalls},
	} {
		for _, task := range streamingTasks {
			t.Run(fmt.Sprintf("%s_%v", name, task), func(t *testing.T) {
				spec := core.Spec{Task: task, Workers: 1}
				start := time.Now()
				got, err := Run(src, spec)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if partCalls != 0 {
					t.Errorf("NewCursors called %d times with one worker, want 0", partCalls)
				}
				if total := got.Phases.Total(); total > elapsed {
					t.Errorf("Phases.Total() = %v exceeds the run's %v", total, elapsed)
				}
				checkRows(t, got.Phases, 12)
				want, err := core.RunReference(ds, spec)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, got, want)
			})
		}
	}
}

// TestPrefetchAnyCursorCount: at Workers > 1 the pipeline runs whatever
// the source hands it — one partition, none, or the one cursor of a
// source that is not partitioned — and similarity never asks for
// partitions.
func TestPrefetchAnyCursorCount(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	empty := &timeseries.Dataset{Temperature: ds.Temperature}

	for _, tc := range []struct {
		name        string
		ds          *timeseries.Dataset
		partitioned bool
	}{
		{"single_partition", ds, true},
		{"empty_answer", empty, true},
		{"not_partitioned", ds, false},
	} {
		for _, task := range streamingTasks {
			t.Run(fmt.Sprintf("%s_%v", tc.name, task), func(t *testing.T) {
				var cursorCalls, partCalls int
				var src Source = partitionedSource{ds: tc.ds, maxParts: 1, cursorCalls: &cursorCalls, partCalls: &partCalls}
				wantCursor, wantPart := 0, 1
				if !tc.partitioned {
					src = struct{ Source }{src} // hides NewCursors
					wantCursor, wantPart = 1, 0
				}
				spec := core.Spec{Task: task, Workers: 4}
				got, err := Run(src, spec)
				if err != nil {
					t.Fatal(err)
				}
				if cursorCalls != wantCursor || partCalls != wantPart {
					t.Errorf("NewCursor/NewCursors called %d/%d times, want %d/%d",
						cursorCalls, partCalls, wantCursor, wantPart)
				}
				checkRows(t, got.Phases, int64(len(tc.ds.Series)))
				want, err := core.RunReference(tc.ds, spec)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, got, want)
			})
		}
	}

	t.Run("similarity", func(t *testing.T) {
		var partCalls int
		src := partitionedSource{ds: ds, partCalls: &partCalls}
		if _, err := Run(src, core.Spec{Task: core.TaskSimilarity, K: 2, Workers: 4}); err != nil {
			t.Fatal(err)
		}
		if partCalls != 0 {
			t.Errorf("NewCursors called %d times for similarity, want 0", partCalls)
		}
	})
}

// TestPrefetchPhaseAccounting checks the busy-time counters: exact row
// counts per stage, non-zero busy sums, and volume matching the dataset.
func TestPrefetchPhaseAccounting(t *testing.T) {
	const consumers, days = 12, 30
	ds := makeDataset(t, consumers, days)
	src := partitionedSource{ds: ds}
	res, err := Run(src, core.Spec{Task: core.TaskThreeLine, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases
	if ph == nil {
		t.Fatal("Phases == nil")
	}
	checkRows(t, ph, consumers)
	wantBytes := int64(consumers * days * 24 * 8)
	if ph.Extract.Bytes != wantBytes {
		t.Errorf("extract bytes = %d, want %d", ph.Extract.Bytes, wantBytes)
	}
	if ph.Extract.Wall <= 0 || ph.Compute.Wall <= 0 {
		t.Errorf("busy sums = extract %v, compute %v; want both > 0",
			ph.Extract.Wall, ph.Compute.Wall)
	}
	if ph.T1Quantiles+ph.T2Regression+ph.T3Adjust <= 0 {
		t.Error("3-line sub-phase timings are all zero")
	}
}

// failingCursor yields ok series then errors, for exercising pipeline
// shutdown without deadlock.
type failingCursor struct {
	series []*timeseries.Series
	failAt int
	i      int
}

var errBoom = errors.New("boom")

func (c *failingCursor) Next() (*timeseries.Series, error) {
	if c.i >= c.failAt {
		return nil, errBoom
	}
	if c.i >= len(c.series) {
		return nil, io.EOF
	}
	s := c.series[c.i]
	c.i++
	return s, nil
}

func (c *failingCursor) Reset() error { c.i = 0; return nil }
func (c *failingCursor) Close() error { return nil }

// failingPartSource hands out one healthy partition and one that errors
// after a few rows; its one cursor over everything errors too.
type failingPartSource struct {
	ds     *timeseries.Dataset
	failAt int
}

func (s failingPartSource) NewCursor() (core.Cursor, error) {
	return &failingCursor{series: s.ds.Series, failAt: s.failAt}, nil
}

func (s failingPartSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

func (s failingPartSource) NewCursors(max int) ([]core.Cursor, error) {
	mid := len(s.ds.Series) / 2
	ok := s.ds.Series[:mid]
	return []core.Cursor{
		core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) { return ok, nil }, nil),
		&failingCursor{series: s.ds.Series[mid:], failAt: s.failAt},
	}, nil
}

// TestPrefetchErrorPropagates checks that a mid-stream cursor error
// surfaces as the Run error and the pipeline unwinds (no goroutine
// deadlock — the test itself would time out on one).
func TestPrefetchErrorPropagates(t *testing.T) {
	ds := makeDataset(t, 10, 20)
	for _, failAt := range []int{0, 1, 3} {
		parts := failingPartSource{ds: ds, failAt: failAt}
		for name, src := range map[string]Source{"partitions": parts, "one_cursor": struct{ Source }{parts}} {
			_, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: 4})
			if !errors.Is(err, errBoom) {
				t.Fatalf("%s, failAt=%d: err = %v, want errBoom", name, failAt, err)
			}
		}
	}
}
