package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// partitionedSource is the minimal Source for the partition loop's
// tests: an in-memory dataset answered as NewDatasetSource answers, or
// sharded into contiguous ID ranges of lazy cursors that hint no size
// until loaded (cold, like a storage engine's), or round-robin (like
// the cluster engines' hash partitions, whose ID ranges interleave). It
// is not NewDatasetSource's type, so a similarity run drains it.
type partitionedSource struct {
	ds         *timeseries.Dataset
	roundRobin bool
	cold       bool
	asked      *[]int // the max of every NewCursors call
	handed     *int   // the number of cursors the last NewCursors returned
	maxParts   int    // cap on partitions handed out (0 = no cap)
}

func (s partitionedSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

func (s partitionedSource) NewCursors(max int) ([]core.Cursor, error) {
	if s.asked != nil {
		*s.asked = append(*s.asked, max)
	}
	if s.maxParts > 0 && max > s.maxParts {
		max = s.maxParts
	}
	var curs []core.Cursor
	switch {
	case s.roundRobin:
		n := min(max, len(s.ds.Series))
		parts := make([][]*timeseries.Series, n)
		for i, ser := range s.ds.Series {
			parts[i%n] = append(parts[i%n], ser)
		}
		for _, p := range parts {
			curs = append(curs, lazyPart(p))
		}
	case s.cold:
		for _, r := range core.PartitionRanges(len(s.ds.Series), max) {
			curs = append(curs, lazyPart(s.ds.Series[r[0]:r[1]]))
		}
	default:
		curs, _ = NewDatasetSource(s.ds).NewCursors(max)
	}
	if s.handed != nil {
		*s.handed = len(curs)
	}
	return curs, nil
}

// lazyPart is a partition cursor over part that hints no size until loaded.
func lazyPart(part []*timeseries.Series) core.Cursor {
	return core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) { return part, nil }, nil)
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

// TestOneWorkerRunsInline pins what Workers: 1 promises: the run asks
// for one partition, and because extract, compute and emit alternate on
// the calling goroutine, their summed busy time cannot exceed the wall
// time around Run.
func TestOneWorkerRunsInline(t *testing.T) {
	ds := makeDataset(t, 12, 30)
	var asked []int
	for name, src := range map[string]Source{
		"warm": partitionedSource{ds: ds, asked: &asked},
		"cold": partitionedSource{ds: ds, cold: true, asked: &asked},
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
				if !slices.Equal(asked, []int{1}) {
					t.Errorf("NewCursors asked for %v with one worker, want [1]", asked)
				}
				asked = nil
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
// the source hands it — one partition, none, or one shard of an
// in-memory dataset — after one NewCursors call at the worker count.
func TestPartitionsAnyCursorCount(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	empty := &timeseries.Dataset{Temperature: ds.Temperature}

	for _, tc := range []struct {
		name string
		ds   *timeseries.Dataset
		cold bool
	}{
		{"single_partition", ds, true},
		{"empty_answer", empty, true},
		{"not_partitioned", ds, false},
	} {
		for _, task := range streamingTasks {
			t.Run(fmt.Sprintf("%s_%v", tc.name, task), func(t *testing.T) {
				var asked []int
				src := partitionedSource{ds: tc.ds, cold: tc.cold, maxParts: 1, asked: &asked}
				spec := core.Spec{Task: task, Workers: 4}
				got, err := Run(src, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(asked, []int{4}) {
					t.Errorf("NewCursors asked for %v, want [4]", asked)
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
}

// TestColdSimilarityOpensCursorsOnce: a similarity run at four workers
// over a source that is not an in-memory dataset opens its partitions
// with one NewCursors call, at the worker count, and drains the four it
// is handed.
func TestColdSimilarityOpensCursorsOnce(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	var asked []int
	var handed int
	src := partitionedSource{ds: ds, cold: true, asked: &asked, handed: &handed}
	spec := core.Spec{Task: core.TaskSimilarity, K: 2, Workers: 4}
	got, err := Run(src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(asked, []int{4}) || handed != 4 {
		t.Errorf("NewCursors asked for %v, %d partitions; want [4] and 4", asked, handed)
	}
	want, err := core.RunReference(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, got, want)
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
	ctx    context.Context
}

var errBoom = errors.New("boom")

func (c *failingCursor) BindContext(ctx context.Context) { c.ctx = ctx }
func (c *failingCursor) SizeHint() (int, bool)           { return len(c.series), true }

func (c *failingCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
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
// after a few rows; its one cursor over everything, at max 1, errors
// too.
type failingPartSource struct {
	ds     *timeseries.Dataset
	failAt int
}

func (s failingPartSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

func (s failingPartSource) NewCursors(max int) ([]core.Cursor, error) {
	if max == 1 {
		return []core.Cursor{&failingCursor{series: s.ds.Series, failAt: s.failAt}}, nil
	}
	mid := len(s.ds.Series) / 2
	ok := s.ds.Series[:mid]
	return []core.Cursor{
		lazyPart(ok),
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
		for _, workers := range []int{1, 4} {
			_, err := Run(parts, core.Spec{Task: core.TaskHistogram, Workers: workers})
			if !errors.Is(err, errBoom) {
				t.Fatalf("W=%d, failAt=%d: err = %v, want errBoom", workers, failAt, err)
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
	src := partitionedSource{ds: ds, maxParts: 1} // one partition
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
