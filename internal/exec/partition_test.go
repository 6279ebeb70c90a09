package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// partitionedSource is the minimal PartitionedSource for the partition
// loop's tests:
// an in-memory dataset sharded either into contiguous ID ranges (like
// the storage engines) or round-robin (like the cluster engines' hash
// partitions, whose ID ranges interleave).
type partitionedSource struct {
	ds          *timeseries.Dataset
	roundRobin  bool
	cursorCalls *int // increments on NewCursor (one-cursor probe)
	partCalls   *int // increments on NewCursors
	handed      *int // the number of cursors the last NewCursors returned
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
	if s.handed != nil {
		*s.handed = len(curs)
	}
	return curs, nil
}

var streamingTasks = []core.Task{core.TaskHistogram, core.TaskThreeLine, core.TaskPAR}

// TestPartitionsMatchReference pins the partition loop bit-identical to
// the oracle for contiguous and interleaved (hash-style) partitions.
func TestPartitionsMatchReference(t *testing.T) {
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

// TestPartitionsAnyCursorCount: at Workers > 1 the run loops over whatever
// the source hands it — one partition, none, or the one cursor of a
// source that is not partitioned — and similarity drains the same
// partitions: one NewCursors call at the worker count, after the one
// cursor it opens first to see whether the source is a warm engine.
func TestPartitionsAnyCursorCount(t *testing.T) {
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

	// A partitionedSource is shaped like a warm engine: its one cursor
	// is a DatasetCursor, which similarity reads instead of partitions.
	// Behind a one cursor that is not, it drains four partitions.
	for _, cold := range []bool{false, true} {
		t.Run(fmt.Sprintf("similarity_cold=%v", cold), func(t *testing.T) {
			var cursorCalls, partCalls, handed int
			var src Source = partitionedSource{ds: ds, cursorCalls: &cursorCalls, partCalls: &partCalls, handed: &handed}
			wantPart, wantHanded := 0, 0
			if cold {
				src = coldSource{src.(partitionedSource)}
				wantPart, wantHanded = 1, 4
			}
			spec := core.Spec{Task: core.TaskSimilarity, K: 2, Workers: 4}
			got, err := Run(src, spec)
			if err != nil {
				t.Fatal(err)
			}
			if cursorCalls != 1 || partCalls != wantPart || handed != wantHanded {
				t.Errorf("NewCursor/NewCursors called %d/%d times, %d partitions; want 1/%d and %d",
					cursorCalls, partCalls, handed, wantPart, wantHanded)
			}
			want, err := core.RunReference(ds, spec)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, got, want)
		})
	}
}

// coldSource is a partitionedSource whose one cursor is not a
// DatasetCursor, as a cold engine's is not.
type coldSource struct{ partitionedSource }

func (s coldSource) NewCursor() (core.Cursor, error) {
	if _, err := s.partitionedSource.NewCursor(); err != nil {
		return nil, err
	}
	return core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
		return s.ds.Series, nil
	}, nil), nil
}

// TestPartitionsPhaseAccounting checks the busy-time counters: exact row
// counts per stage, non-zero busy sums, and volume matching the dataset.
func TestPartitionsPhaseAccounting(t *testing.T) {
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

// failingCursor yields ok series then errors, for exercising a failed
// run's shutdown without deadlock.
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

// TestPartitionErrorPropagates checks that a mid-stream cursor error
// surfaces as the Run error and the partitions unwind (no goroutine
// deadlock — the test itself would time out on one).
func TestPartitionErrorPropagates(t *testing.T) {
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

// TestFewPartitionsShareEverySlot: a source that splits into fewer
// partitions than workers still computes on every kernel slot, the
// partitions taking contiguous runs of them, and the result is the
// serial one.
func TestFewPartitionsShareEverySlot(t *testing.T) {
	ds := makeDataset(t, 12, 30)
	for _, task := range []core.Task{core.TaskThreeLine, core.TaskPAR} {
		for _, parts := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%v_parts%d", task, parts), func(t *testing.T) {
				spec := core.Spec{Task: task, Workers: 4}.WithDefaults()
				out := &core.Results{Task: task, Phases: &core.Phases{}}
				k, err := newKernel(spec, ds.Temperature, spec.Workers, out.Phases)
				if err != nil {
					t.Fatal(err)
				}
				src := partitionedSource{ds: ds, maxParts: parts}
				if err := runConsumers(context.Background(), src, k, spec.Workers, out, &contain{}); err != nil {
					t.Fatal(err)
				}
				for w := range spec.Workers {
					scr := reflect.ValueOf(k.parScr)
					if k.line != nil {
						scr = reflect.ValueOf(k.lineScr)
					}
					if scr.Index(w).IsZero() {
						t.Errorf("kernel slot %d computed nothing", w)
					}
				}
				want, err := core.RunReference(ds, spec)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, out, want)
			})
		}
	}
}

// TestSharedSlotsReportTheFirstError: when one partition computes a
// block on several slots and two of its consumers fail, the run reports
// the error the one-worker loop meets first, however the slots
// interleave.
func TestSharedSlotsReportTheFirstError(t *testing.T) {
	ds := makeDataset(t, 12, 30)
	for _, i := range []int{4, 10} {
		ds.Series[i].Readings = ds.Series[i].Readings[:100]
	}
	src := struct{ Source }{NewDatasetSource(ds)} // one partition
	for _, task := range []core.Task{core.TaskThreeLine, core.TaskPAR} {
		_, err := Run(src, core.Spec{Task: task, Workers: 1})
		if err == nil {
			t.Fatalf("%v: a one-worker run over short series succeeded", task)
		}
		for run := range 50 {
			_, got := Run(src, core.Spec{Task: task, Workers: 4})
			if errText(got) != errText(err) {
				t.Fatalf("%v run %d: err %q, want %q", task, run, errText(got), errText(err))
			}
		}
	}
}

// overSplit hands out one partition more than it is asked for.
type overSplit struct{ partitionedSource }

func (s overSplit) NewCursors(max int) ([]core.Cursor, error) {
	return s.partitionedSource.NewCursors(max + 1)
}

// TestMorePartitionsThanAskedFails: a source that breaks the
// PartitionedSource contract by opening more cursors than max fails the
// run instead of sharing a kernel slot between two partitions.
func TestMorePartitionsThanAskedFails(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	_, err := Run(overSplit{partitionedSource{ds: ds}}, core.Spec{Task: core.TaskPAR, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "3 partitions, more than the 2 asked for") {
		t.Fatalf("err = %v, want the partition count refused", err)
	}
}
