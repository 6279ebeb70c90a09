package exec

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// summarySource wraps a dataset with in-memory summarizing cursors
// (core.SummaryCursor): each series is sliced into fixed-size blocks
// summarized via colcodec.Summarize — the same summaries the column
// store's segment headers carry — so the fast path can be pitted
// against the decode loop over identical data. Partitions are the
// contiguous ranges every engine cuts (core.PartitionRanges).
type summarySource struct {
	datasetSource
	blockRows int
	// fail makes the cursor fail with the given error when it reaches
	// the household.
	fail map[timeseries.ID]error
	// cancelAt, when cancel is set, is the household whose read cancels
	// the run's context.
	cancelAt timeseries.ID
	cancel   context.CancelFunc
	// open, when set, counts cursors handed out and not yet closed.
	open *atomic.Int64
}

func (s summarySource) NewCursors(max int) ([]core.Cursor, error) {
	var curs []core.Cursor
	for _, r := range core.PartitionRanges(len(s.ds.Series), max) {
		curs = append(curs, s.cursor(r[0], r[1]))
	}
	return curs, nil
}

func (s summarySource) cursor(lo, hi int) *memSummaryCursor {
	if s.open != nil {
		s.open.Add(1)
	}
	return &memSummaryCursor{src: s, lo: lo, i: lo, hi: hi}
}

type memSummaryCursor struct {
	src       summarySource
	lo, i, hi int
	summed    bool // the last move was a NextSummary that returned household i-1
	closed    bool
	ctx       context.Context
}

func (c *memSummaryCursor) BindContext(ctx context.Context) { c.ctx = ctx }
func (c *memSummaryCursor) SizeHint() (int, bool)           { return c.hi - c.lo, true }

// advance moves to the next household, as Next and NextSummary both do.
func (c *memSummaryCursor) advance() (*timeseries.Series, error) {
	c.summed = false
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= c.hi {
		return nil, io.EOF
	}
	s := c.src.ds.Series[c.i]
	if err := c.src.fail[s.ID]; err != nil {
		return nil, err
	}
	if c.src.cancel != nil && s.ID == c.src.cancelAt {
		c.src.cancel()
	}
	c.i++
	return s, nil
}

func (c *memSummaryCursor) Next() (*timeseries.Series, error) { return c.advance() }

func (c *memSummaryCursor) NextSummary() (timeseries.ID, []core.BlockStats, error) {
	s, err := c.advance()
	if err != nil {
		return 0, nil, err
	}
	var blocks []core.BlockStats
	for start := 0; start < len(s.Readings); start += c.src.blockRows {
		end := min(start+c.src.blockRows, len(s.Readings))
		sum := colcodec.Summarize(s.Readings[start:end])
		blocks = append(blocks, core.BlockStats{
			Start: start, Count: sum.Count, NaNs: sum.NaNs,
			Min: sum.Min, Max: sum.Max,
		})
	}
	c.summed = true
	return s.ID, blocks, nil
}

func (c *memSummaryCursor) DecodeBlock(b int, dst []float64) error {
	if !c.summed {
		return errors.New("DecodeBlock with no household from NextSummary")
	}
	s := c.src.ds.Series[c.i-1]
	copy(dst, s.Readings[b*c.src.blockRows:])
	return nil
}

func (c *memSummaryCursor) Reset() error {
	c.i, c.summed, c.closed = c.lo, false, false
	return nil
}

func (c *memSummaryCursor) Close() error {
	if !c.closed && c.src.open != nil {
		c.src.open.Add(-1)
	}
	c.summed, c.closed = false, true
	return nil
}

// summaryDataset builds sixteen consumers that exercise every fast-path
// branch, with the special ones spread so that at eight partitions (two
// consumers each) no two share one: smooth multi-block series (AddN all
// blocks), a wide-spread series (bucket-straddling blocks forcing
// partial decode), a constant series (zero-width histogram), a series
// of one reading, and fallback consumers carrying NaN and ±Inf.
func summaryDataset(t *testing.T) *timeseries.Dataset {
	t.Helper()
	ds := makeDataset(t, 16, 20)
	n := len(ds.Series[0].Readings)

	nan := ds.Series[1].Readings
	nan[7] = math.NaN()
	nan[n-1] = math.NaN()

	inf := ds.Series[4].Readings
	inf[0] = math.Inf(1)
	inf[n/2] = math.Inf(-1)

	for i := range ds.Series[7].Readings {
		ds.Series[7].Readings[i] = 1.25
	}
	ds.Series[10].Readings = ds.Series[10].Readings[:1]
	for i := range ds.Series[13].Readings {
		ds.Series[13].Readings[i] = float64(i%97) * 3.5
	}
	return ds
}

var summaryWorkers = []int{1, 2, 4, 8}

// TestSummaryPartitionsConformance holds the summarizing test source to
// the partition contract, summaries included, and runs the histogram
// over it empty: no partition, no result, no error.
func TestSummaryPartitionsConformance(t *testing.T) {
	ds := summaryDataset(t)
	cursortest.RunPartitioned(t, cursortest.IDs(ds), func(*testing.T) core.PartitionedSource {
		return summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 64}
	})
	empty := summarySource{datasetSource: datasetSource{ds: &timeseries.Dataset{Temperature: ds.Temperature}}, blockRows: 64}
	for _, workers := range summaryWorkers {
		res, err := Run(empty, core.Spec{Task: core.TaskHistogram, Workers: workers})
		if err != nil || len(res.Histograms) != 0 {
			t.Fatalf("W=%d over no households: %v, %+v", workers, err, res)
		}
	}
}

// TestSummaryHistogramBitIdentical proves the compressed-domain path
// returns, at every worker count, the same buckets, ranges and result
// order as core.RunReference and as the pipeline over the same data with
// the summaries hidden, including the NaN/Inf fallbacks, and that which
// blocks it answers from headers does not depend on who reads them.
func TestSummaryHistogramBitIdentical(t *testing.T) {
	ds := summaryDataset(t)
	ref, err := core.RunReference(ds, core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	for _, blockRows := range []int{1, 7, 64, 1 << 20} {
		src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: blockRows}
		var first *core.Phases
		for _, workers := range summaryWorkers {
			spec := core.Spec{Task: core.TaskHistogram, Workers: workers}
			got, err := Run(src, spec)
			if err != nil {
				t.Fatalf("blockRows=%d W=%d: %v", blockRows, workers, err)
			}
			hidden, err := Run(NewDatasetSource(ds), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Histograms) != len(ds.Series) {
				t.Fatalf("blockRows=%d W=%d: %d results, want %d", blockRows, workers, len(got.Histograms), len(ds.Series))
			}
			compareResults(t, got, ref)
			compareResults(t, got, hidden)
			for i, g := range got.Histograms {
				w := ref.Histograms[i]
				if math.Float64bits(g.Histogram.Min) != math.Float64bits(w.Histogram.Min) ||
					math.Float64bits(g.Histogram.Max) != math.Float64bits(w.Histogram.Max) {
					t.Fatalf("blockRows=%d W=%d consumer %d: range [%g,%g] vs [%g,%g]", blockRows, workers,
						g.ID, g.Histogram.Min, g.Histogram.Max, w.Histogram.Min, w.Histogram.Max)
				}
			}
			ph := got.Phases
			if first == nil {
				first = ph
				if ph.SummaryBlocks+ph.DecodedBlocks == 0 || ph.Extract.Rows != int64(len(ds.Series)) {
					t.Fatalf("blockRows=%d: fast path did not run: %+v", blockRows, ph)
				}
			}
			if ph.SummaryBlocks != first.SummaryBlocks || ph.DecodedBlocks != first.DecodedBlocks || ph.Extract.Rows != first.Extract.Rows {
				t.Fatalf("blockRows=%d W=%d: summary/decoded/rows %d/%d/%d, at W=1 %d/%d/%d", blockRows, workers,
					ph.SummaryBlocks, ph.DecodedBlocks, ph.Extract.Rows, first.SummaryBlocks, first.DecodedBlocks, first.Extract.Rows)
			}
		}
	}
}

// TestSummaryHistogramEmptySeriesError checks the fallback preserves the
// generic path's error contract: an empty series aborts a FailFast run
// with the kernel's wrapped ErrEmptyInput, whichever partition holds it.
func TestSummaryHistogramEmptySeriesError(t *testing.T) {
	ds := summaryDataset(t)
	ds.Series[15].Readings = nil
	src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 16}
	_, wantErr := core.RunReference(ds, core.Spec{Task: core.TaskHistogram})
	if wantErr == nil {
		t.Fatal("reference accepted an empty series")
	}
	for _, workers := range summaryWorkers {
		_, gotErr := Run(src, core.Spec{Task: core.TaskHistogram, Workers: workers})
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("W=%d: fast path error %v, reference %q", workers, gotErr, wantErr)
		}
	}
}

// TestSummaryLowestPartitionErrorWins fails one consumer in each of two
// partitions, the higher one at the head of its partition so that it
// fails first on the clock: the run must still report the lower
// household's error, the one a single cursor would have stopped at.
func TestSummaryLowestPartitionErrorWins(t *testing.T) {
	ds := summaryDataset(t)
	lower, higher := errors.New("lower household unreadable"), errors.New("higher household unreadable")
	src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 64, fail: map[timeseries.ID]error{
		ds.Series[6].ID:  lower,  // third of partition 1 at W=4
		ds.Series[12].ID: higher, // first of partition 3 at W=4
	}}
	for run := 0; run < 50; run++ {
		for _, workers := range summaryWorkers {
			_, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: workers})
			if !errors.Is(err, lower) {
				t.Fatalf("run %d W=%d: error %v, want the lower household's", run, workers, err)
			}
		}
	}
}

// TestSummaryGateScope checks that only a fail-fast histogram reads
// summaries: the other tasks and policies decode every series from the
// same summarizing cursors, and a cursor without summaries is decoded
// too, at one worker and at several.
func TestSummaryGateScope(t *testing.T) {
	ds := makeDataset(t, 4, 20)
	src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 16}
	for _, workers := range []int{1, 4} {
		for _, run := range []struct {
			src     Source
			spec    core.Spec
			summary bool
		}{
			{src, core.Spec{Task: core.TaskHistogram}, true},
			{src, core.Spec{Task: core.TaskHistogram, FailPolicy: core.Quarantine}, false},
			{src, core.Spec{Task: core.TaskHistogram, FailPolicy: core.Repair}, false},
			{src, core.Spec{Task: core.TaskThreeLine}, false},
			{src, core.Spec{Task: core.TaskPAR}, false},
			{NewDatasetSource(ds), core.Spec{Task: core.TaskHistogram}, false},
		} {
			run.spec.Workers = workers
			res, err := Run(run.src, run.spec)
			if err != nil {
				t.Fatalf("W=%d %v %v: %v", workers, run.spec.Task, run.spec.FailPolicy, err)
			}
			if ph := res.Phases; (ph.SummaryBlocks+ph.DecodedBlocks > 0) != run.summary {
				t.Fatalf("W=%d %v %v over %T: %d summary and %d decoded blocks, summaries read: want %v",
					workers, run.spec.Task, run.spec.FailPolicy, run.src, ph.SummaryBlocks, ph.DecodedBlocks, run.summary)
			}
		}
	}
}

// TestSummaryHistogramPhases checks the fast path still populates the
// three-stage phase counters the benchmark reports parse.
func TestSummaryHistogramPhases(t *testing.T) {
	ds := makeDataset(t, 5, 20)
	src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 64}
	for _, workers := range summaryWorkers {
		res, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ph := res.Phases
		if ph.Extract.Rows != 5 || ph.Compute.Rows != 5 || ph.Emit.Rows != 5 {
			t.Fatalf("W=%d: phase rows = %d/%d/%d, want 5/5/5", workers,
				ph.Extract.Rows, ph.Compute.Rows, ph.Emit.Rows)
		}
	}
}

// TestSummaryHistogramCancel cancels the context from inside one
// partition of a four-worker run: the run returns the context's error
// with every partition goroutine joined and every cursor closed. A
// context cancelled before the run starts never opens one.
func TestSummaryHistogramCancel(t *testing.T) {
	ds := summaryDataset(t)
	var open atomic.Int64
	base := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 64,
			cancelAt: ds.Series[9].ID, cancel: cancel, open: &open}
		_, err := RunContext(ctx, src, core.Spec{Task: core.TaskHistogram, Workers: 4})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: error %v, want context.Canceled", run, err)
		}
		if n := open.Load(); n != 0 {
			t.Fatalf("run %d: %d summary cursors left open", run, n)
		}
	}
	// The partitions are joined before the run returns; give the
	// runtime a moment to retire their goroutines from the count.
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 64, open: &open}
	if _, err := RunContext(ctx, src, core.Spec{Task: core.TaskHistogram}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: error %v, want context.Canceled", err)
	}
}
