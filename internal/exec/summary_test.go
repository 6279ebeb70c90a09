package exec

import (
	"context"
	"io"
	"math"
	"testing"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// summarySource wraps a dataset with an in-memory core.SummarySource:
// each series is sliced into fixed-size blocks summarized via
// colcodec.Summarize — the same summaries the column store's segment
// headers carry — so the fast path can be pitted against the generic
// cursor pipeline over identical data.
type summarySource struct {
	datasetSource
	blockRows int
}

func (s summarySource) NewSummaryCursor() (core.SummaryCursor, error) {
	return &memSummaryCursor{ds: s.ds, blockRows: s.blockRows, i: -1}, nil
}

type memSummaryCursor struct {
	ds        *timeseries.Dataset
	blockRows int
	i         int
	closed    bool
}

func (c *memSummaryCursor) NextSummary() (timeseries.ID, []core.BlockStats, error) {
	if c.closed {
		return 0, nil, io.EOF
	}
	c.i++
	if c.i >= len(c.ds.Series) {
		return 0, nil, io.EOF
	}
	s := c.ds.Series[c.i]
	var blocks []core.BlockStats
	for start := 0; start < len(s.Readings); start += c.blockRows {
		end := start + c.blockRows
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
	s := c.ds.Series[c.i]
	start := b * c.blockRows
	copy(dst, s.Readings[start:])
	return nil
}

func (c *memSummaryCursor) Close() error {
	c.closed = true
	return nil
}

// summaryDataset builds a dataset that exercises every fast-path branch:
// smooth multi-block series (AddN all blocks), a wide-spread series
// (bucket-straddling blocks forcing partial decode), a constant series
// (zero-width histogram), and fallback consumers carrying NaN and ±Inf.
func summaryDataset(t *testing.T) *timeseries.Dataset {
	t.Helper()
	ds := makeDataset(t, 4, 20)
	n := len(ds.Series[0].Readings)

	nan := make([]float64, n)
	copy(nan, ds.Series[1].Readings)
	nan[7] = math.NaN()
	nan[n-1] = math.NaN()

	inf := make([]float64, n)
	copy(inf, ds.Series[2].Readings)
	inf[0] = math.Inf(1)
	inf[n/2] = math.Inf(-1)

	konst := make([]float64, n)
	for i := range konst {
		konst[i] = 1.25
	}

	spread := make([]float64, n)
	for i := range spread {
		spread[i] = float64(i%97) * 3.5
	}

	ds.Series = append(ds.Series,
		&timeseries.Series{ID: 900, Readings: nan},
		&timeseries.Series{ID: 901, Readings: inf},
		&timeseries.Series{ID: 902, Readings: konst},
		&timeseries.Series{ID: 903, Readings: spread},
	)
	return ds
}

// TestSummaryHistogramBitIdentical proves the compressed-domain path
// returns the same buckets, ranges and result order as the generic
// cursor pipeline over the same data, including the NaN/Inf fallbacks.
func TestSummaryHistogramBitIdentical(t *testing.T) {
	ds := summaryDataset(t)
	for _, blockRows := range []int{1, 7, 64, 1 << 20} {
		src := summarySource{datasetSource{ds: ds}, blockRows}
		got, err := Run(src, core.Spec{Task: core.TaskHistogram})
		if err != nil {
			t.Fatalf("blockRows=%d: %v", blockRows, err)
		}
		want, err := Run(NewDatasetSource(ds), core.Spec{Task: core.TaskHistogram})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Histograms) != len(ds.Series) {
			t.Fatalf("blockRows=%d: %d results, want %d", blockRows, len(got.Histograms), len(ds.Series))
		}
		compareResults(t, got, want)
		for i, g := range got.Histograms {
			w := want.Histograms[i]
			if math.Float64bits(g.Histogram.Min) != math.Float64bits(w.Histogram.Min) ||
				math.Float64bits(g.Histogram.Max) != math.Float64bits(w.Histogram.Max) {
				t.Fatalf("blockRows=%d consumer %d: range [%g,%g] vs [%g,%g]",
					blockRows, g.ID, g.Histogram.Min, g.Histogram.Max, w.Histogram.Min, w.Histogram.Max)
			}
		}
	}
}

// TestSummaryHistogramEmptySeriesError checks the fallback preserves the
// generic path's error contract: an empty series aborts a FailFast run
// with the kernel's wrapped ErrEmptyInput.
func TestSummaryHistogramEmptySeriesError(t *testing.T) {
	ds := makeDataset(t, 2, 10)
	ds.Series = append(ds.Series, &timeseries.Series{ID: 950, Readings: nil})
	src := summarySource{datasetSource{ds: ds}, 16}
	_, gotErr := Run(src, core.Spec{Task: core.TaskHistogram})
	_, wantErr := Run(NewDatasetSource(ds), core.Spec{Task: core.TaskHistogram})
	if gotErr == nil || wantErr == nil {
		t.Fatalf("errors: fast=%v generic=%v, want both non-nil", gotErr, wantErr)
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("fast path error %q, generic %q", gotErr, wantErr)
	}
}

// TestSummaryGateScope checks the fast path stays off for non-histogram
// tasks and non-FailFast policies.
func TestSummaryGateScope(t *testing.T) {
	src := summarySource{datasetSource{ds: makeDataset(t, 2, 10)}, 16}
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
	src := summarySource{datasetSource{ds: ds}, 64}
	res, err := Run(src, core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases
	if ph.Extract.Rows != 5 || ph.Compute.Rows != 5 || ph.Emit.Rows != 5 {
		t.Fatalf("phase rows = %d/%d/%d, want 5/5/5",
			ph.Extract.Rows, ph.Compute.Rows, ph.Emit.Rows)
	}
}

// TestSummaryHistogramCancel checks a cancelled context aborts the scan.
func TestSummaryHistogramCancel(t *testing.T) {
	ds := makeDataset(t, 4, 20)
	src := summarySource{datasetSource{ds: ds}, 64}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, src, core.Spec{Task: core.TaskHistogram}); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}
