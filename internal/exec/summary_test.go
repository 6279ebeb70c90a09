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

// summarySource wraps a dataset with an in-memory core.SummarySource:
// each series is sliced into fixed-size blocks summarized via
// colcodec.Summarize — the same summaries the column store's segment
// headers carry — so the fast path can be pitted against the generic
// cursor pipeline over identical data. Partitions are the contiguous
// ranges every engine cuts (core.PartitionRanges).
type summarySource struct {
	datasetSource
	blockRows int
	// fail makes NextSummary fail with the given error when it reaches
	// the household.
	fail map[timeseries.ID]error
	// cancelAt, when cancel is set, is the household whose NextSummary
	// cancels the run's context.
	cancelAt timeseries.ID
	cancel   context.CancelFunc
	// open, when set, counts cursors handed out and not yet closed.
	open *atomic.Int64
}

func (s summarySource) NewSummaryCursors(max int) ([]core.SummaryCursor, error) {
	var curs []core.SummaryCursor
	for _, r := range core.PartitionRanges(len(s.ds.Series), max) {
		curs = append(curs, &memSummaryCursor{src: s, i: r[0] - 1, hi: r[1]})
		if s.open != nil {
			s.open.Add(1)
		}
	}
	return curs, nil
}

type memSummaryCursor struct {
	src    summarySource
	i, hi  int
	closed bool
}

func (c *memSummaryCursor) NextSummary() (timeseries.ID, []core.BlockStats, error) {
	if c.closed || c.i+1 >= c.hi {
		return 0, nil, io.EOF
	}
	c.i++
	s := c.src.ds.Series[c.i]
	if err := c.src.fail[s.ID]; err != nil {
		return 0, nil, err
	}
	if c.src.cancel != nil && s.ID == c.src.cancelAt {
		c.src.cancel()
	}
	var blocks []core.BlockStats
	for start := 0; start < len(s.Readings); start += c.src.blockRows {
		end := start + c.src.blockRows
		if end > len(s.Readings) {
			end = len(s.Readings)
		}
		sum := colcodec.Summarize(s.Readings[start:end])
		blocks = append(blocks, core.BlockStats{
			Start: start, Count: sum.Count, NaNs: sum.NaNs,
			Min: sum.Min, Max: sum.Max, Sum: sum.Sum, SumSq: sum.SumSq,
		})
	}
	return s.ID, blocks, nil
}

func (c *memSummaryCursor) DecodeBlock(b int, dst []float64) error {
	s := c.src.ds.Series[c.i]
	start := b * c.src.blockRows
	copy(dst, s.Readings[start:])
	return nil
}

func (c *memSummaryCursor) Close() error {
	if !c.closed && c.src.open != nil {
		c.src.open.Add(-1)
	}
	c.closed = true
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

func idsOf(ds *timeseries.Dataset) []timeseries.ID {
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	return ids
}

var summaryWorkers = []int{1, 2, 4, 8}

func TestSummaryPartitionsConformance(t *testing.T) {
	ds := summaryDataset(t)
	cursortest.RunSummaryPartitioned(t, summarySource{datasetSource: datasetSource{ds: ds}, blockRows: 64}, idsOf(ds))
	empty := &timeseries.Dataset{Temperature: ds.Temperature}
	cursortest.RunSummaryPartitioned(t, summarySource{datasetSource: datasetSource{ds: empty}, blockRows: 64}, nil)
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

// TestSummaryGateScope checks the fast path stays off for non-histogram
// tasks and non-FailFast policies.
func TestSummaryGateScope(t *testing.T) {
	src := summarySource{datasetSource: datasetSource{ds: makeDataset(t, 2, 10)}, blockRows: 16}
	if _, ok := summaryHistogramApplies(src, core.Spec{Task: core.TaskThreeLine, FailPolicy: core.FailFast}.WithDefaults()); ok {
		t.Fatal("fast path claimed a 3-line run")
	}
	if _, ok := summaryHistogramApplies(src, core.Spec{Task: core.TaskHistogram, FailPolicy: core.Quarantine}.WithDefaults()); ok {
		t.Fatal("fast path claimed a Quarantine run")
	}
	if _, ok := summaryHistogramApplies(NewDatasetSource(makeDataset(t, 2, 10)), core.Spec{Task: core.TaskHistogram}.WithDefaults()); ok {
		t.Fatal("fast path claimed a source without summaries")
	}
	if _, ok := summaryHistogramApplies(src, core.Spec{Task: core.TaskHistogram}.WithDefaults()); !ok {
		t.Fatal("fast path declined an eligible run")
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
