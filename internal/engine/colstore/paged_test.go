package colstore

import (
	"io"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// buildSegments streams a seeded dataset into a segment file under dir
// with small blocks (so short test series still span several blocks)
// and returns the generating dataset for oracle comparisons.
func buildSegments(t *testing.T, dir string, consumers, days, blockRows int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSegmentWriter(filepath.Join(dir, "segments.col"), ds.Temperature.Values, WithBlockRows(blockRows))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Series {
		if err := w.Append(s.ID, s.Readings); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// pagedEngine opens an engine with the given cache budget over a
// pre-written segment dir, released when the test ends.
func pagedEngine(t *testing.T, dir string, budget int64) *Engine {
	t.Helper()
	e := New(dir, WithMemBudget(budget))
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Release() })
	return e
}

// TestCursorMatchesDatasetBitIdentical reads a store back at every
// budget and compares it with the dataset that generated it. Every
// consumer spans 4 blocks (240 rows / 64), so at two blocks the cache
// fills on the first consumer and every later block misses.
func TestCursorMatchesDatasetBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ds := buildSegments(t, dir, 9, 10, 64)
	for _, b := range budgets(64) {
		e := pagedEngine(t, dir, b.bytes)
		cur, err := e.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range ds.Series {
			got, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != want.ID {
				t.Fatalf("%s: id %d, want %d", b.name, got.ID, want.ID)
			}
			for j := range want.Readings {
				if math.Float64bits(got.Readings[j]) != math.Float64bits(want.Readings[j]) {
					t.Fatalf("%s: consumer %d reading %d: %v != %v", b.name, got.ID, j, got.Readings[j], want.Readings[j])
				}
			}
		}
		if _, err := cur.Next(); err != io.EOF {
			t.Fatalf("%s: want EOF, got %v", b.name, err)
		}
		cur.Close()
		hits, misses, resident := e.PagerStats()
		if hits != 0 || misses != 9*4 || resident > b.bytes {
			t.Fatalf("%s: hits=%d misses=%d resident=%d, want 0, %d and at most %d", b.name, hits, misses, resident, 9*4, b.bytes)
		}
	}
}

// drainAll reads cur to io.EOF, calling each (when set) after every
// row, and closes it.
func drainAll(t *testing.T, cur core.Cursor, each func()) {
	t.Helper()
	defer cur.Close()
	for {
		if _, err := cur.Next(); err == io.EOF {
			return
		} else if err != nil {
			t.Error(err)
			return
		}
		if each != nil {
			each()
		}
	}
}

// TestPagerBudgetIsStrictUnderPartitions drives eight partition cursors
// at once over a cache of three blocks: resident bytes never exceed the
// budget, not by one in-flight block per cursor, and since nothing is
// evicted the second pass hits exactly the three blocks the first
// admitted.
func TestPagerBudgetIsStrictUnderPartitions(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 16, 20, 32) // 16 consumers x 15 blocks of 32 rows
	budget := int64(3 * 32 * 8)
	e := pagedEngine(t, dir, budget)
	for pass := 0; pass < 2; pass++ {
		curs, err := e.NewCursors(8)
		if err != nil {
			t.Fatal(err)
		}
		if len(curs) != 8 {
			t.Fatalf("%d partitions, want 8", len(curs))
		}
		var wg sync.WaitGroup
		for _, cur := range curs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drainAll(t, cur, func() {
					if _, _, resident := e.PagerStats(); resident > budget {
						t.Errorf("resident %d exceeds budget %d mid-scan", resident, budget)
					}
				})
			}()
		}
		wg.Wait()
	}
	hits, misses, resident := e.PagerStats()
	if hits != 3 || misses != 2*16*15-3 || resident != budget {
		t.Fatalf("hits=%d misses=%d resident=%d, want 3, %d and %d", hits, misses, resident, 2*16*15-3, budget)
	}
}

// TestPagerSecondScanHitsWhatFirstAdmitted scans a store four times its
// budget twice with one cursor: the first pass admits the first quarter
// of the blocks (the scan ascends) and decodes the rest straight into
// the rows; the second pass hits exactly that quarter and decodes the
// other three again.
func TestPagerSecondScanHitsWhatFirstAdmitted(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 8, 10, 60) // 8 consumers x 4 blocks of 60 rows
	e := pagedEngine(t, dir, 8*60*8) // room for 8 of the 32 blocks
	for pass, want := range [][2]int64{{0, 32}, {8, 32 + 24}} {
		cur, err := e.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		drainAll(t, cur, nil)
		if hits, misses, _ := e.PagerStats(); hits != want[0] || misses != want[1] {
			t.Fatalf("after pass %d: hits=%d misses=%d, want %d and %d", pass+1, hits, misses, want[0], want[1])
		}
	}
	for key := range e.pager.frames {
		if key.c > 1 {
			t.Fatalf("block %v admitted: the first pass should have filled the cache from consumers 0 and 1", key)
		}
	}
}

func TestPagerCacheHitsUnderLargeBudget(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 4, 10, 64)
	e := pagedEngine(t, dir, 1<<30)
	for pass := 0; pass < 2; pass++ {
		cur, err := e.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := cur.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		cur.Close()
	}
	hits, misses, _ := e.PagerStats()
	blocks := int64(4 * 4) // 4 consumers x ceil(240/64)
	if misses != blocks || hits != blocks {
		t.Fatalf("hits=%d misses=%d, want %d each (second pass fully cached)", hits, misses, blocks)
	}
}

func TestPagedWarmPrefillsWithinBudget(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 6, 20, 32)
	budget := int64(4 * 32 * 8)
	e := pagedEngine(t, dir, budget)
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	if e.decoded != nil {
		t.Fatal("paged Warm must not materialize the dataset")
	}
	_, misses, resident := e.PagerStats()
	if resident == 0 || resident > budget {
		t.Fatalf("resident %d after Warm, budget %d", resident, budget)
	}
	if misses == 0 {
		t.Fatal("Warm decoded nothing")
	}
}

// TestPagedScanAfterWarmHitsWhatWarmAdmitted: Warm fills the cache up to
// its budget, reading whole consumers, and the scan that follows finds
// those blocks there.
func TestPagedScanAfterWarmHitsWhatWarmAdmitted(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 6, 20, 32) // 6 consumers x 15 blocks
	e := pagedEngine(t, dir, 4*32*8)
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	// The first consumer fills the cache with its first 4 blocks.
	if hits, misses, _ := e.PagerStats(); hits != 0 || misses != 15 {
		t.Fatalf("after Warm: hits=%d misses=%d, want 0 and 15", hits, misses)
	}
	cur, err := e.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, cur, nil)
	if hits, misses, _ := e.PagerStats(); hits != 4 || misses != 15+(6*15-4) {
		t.Fatalf("after the scan: hits=%d misses=%d, want 4 and %d", hits, misses, 15+(6*15-4))
	}
}

func TestSegmentWriterQuantize(t *testing.T) {
	dir := t.TempDir()
	temp := []float64{1, 2, 3, 4}
	w, err := NewSegmentWriter(filepath.Join(dir, "segments.col"), temp, WithQuantize(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []float64{1.23456789, 0.0004, 2.71828182, 100.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := New(dir)
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	cur, err := e.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	s, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.235, 0, 2.718, 100.5}
	for i := range want {
		if !stats.ExactEqual(s.Readings[i], want[i]) {
			t.Fatalf("reading %d = %v, want %v", i, s.Readings[i], want[i])
		}
	}
}

func TestSummaryCursorMatchesDecode(t *testing.T) {
	dir := t.TempDir()
	ds := buildSegments(t, dir, 5, 10, 64)
	e := New(dir)
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	sc, err := e.NewSummaryCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	buf := make([]float64, DefaultBlockRows)
	for _, want := range ds.Series {
		id, blocks, err := sc.NextSummary()
		if err != nil {
			t.Fatal(err)
		}
		if id != want.ID {
			t.Fatalf("id %d, want %d", id, want.ID)
		}
		total := 0
		for b, bs := range blocks {
			ref := colcodec.Summarize(want.Readings[bs.Start : bs.Start+bs.Count])
			if !stats.ExactEqual(bs.Min, ref.Min) || !stats.ExactEqual(bs.Max, ref.Max) ||
				!stats.ExactEqual(bs.Sum, ref.Sum) || bs.NaNs != ref.NaNs {
				t.Fatalf("block %d summary %+v, want %+v", b, bs, ref)
			}
			if err := sc.DecodeBlock(b, buf[:bs.Count]); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < bs.Count; j++ {
				if math.Float64bits(buf[j]) != math.Float64bits(want.Readings[bs.Start+j]) {
					t.Fatalf("block %d row %d mismatch", b, j)
				}
			}
			total += bs.Count
		}
		if total != len(want.Readings) {
			t.Fatalf("blocks cover %d rows, want %d", total, len(want.Readings))
		}
	}
	if _, _, err := sc.NextSummary(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestSummaryPartitionConformance holds the engine's summary cursors to
// the partition contract at every budget.
func TestSummaryPartitionConformance(t *testing.T) {
	dir := t.TempDir()
	ds := buildSegments(t, dir, 7, 10, 64)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	for _, b := range budgets(64) {
		cursortest.RunSummaryPartitioned(t, pagedEngine(t, dir, b.bytes), ids)
	}
}

// TestSummaryHistogramAtEveryWorkerCount: the histogram task, which the
// column store answers from partitioned block summaries, is the
// reference's bit for bit at one worker and at more than there are
// consumers, and which blocks it decodes does not depend on how many
// goroutines read them.
func TestSummaryHistogramAtEveryWorkerCount(t *testing.T) {
	dir := t.TempDir()
	ds := buildSegments(t, dir, 7, 10, 64)
	want, err := core.RunReference(ds, core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	e := pagedEngine(t, dir, 2*64*8)
	var first *core.Phases
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := e.Run(core.Spec{Task: core.TaskHistogram, Workers: workers})
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		assertResultsIdentical(t, core.TaskHistogram, got, want)
		ph := got.Phases
		if first == nil {
			first = ph
			if ph.SummaryBlocks+ph.DecodedBlocks != 7*4 {
				t.Fatalf("summary path did not see the 28 blocks: %+v", ph)
			}
		}
		if ph.SummaryBlocks != first.SummaryBlocks || ph.DecodedBlocks != first.DecodedBlocks || ph.Extract.Rows != first.Extract.Rows {
			t.Fatalf("W=%d: summary/decoded/rows %d/%d/%d, at W=1 %d/%d/%d", workers,
				ph.SummaryBlocks, ph.DecodedBlocks, ph.Extract.Rows, first.SummaryBlocks, first.DecodedBlocks, first.Extract.Rows)
		}
	}
}

// TestEngineAgreesWithReferenceAtEveryBudget runs every task at every
// budget, cold and after Warm, and holds it to core.RunReference over
// the generating dataset bit for bit.
func TestEngineAgreesWithReferenceAtEveryBudget(t *testing.T) {
	dir := t.TempDir()
	ds := buildSegments(t, dir, 8, 15, 64)
	for _, b := range budgets(64) {
		e := pagedEngine(t, dir, b.bytes)
		for _, warm := range []bool{false, true} {
			if warm {
				if err := e.Warm(); err != nil {
					t.Fatal(err)
				}
			}
			for _, task := range core.Tasks {
				spec := core.Spec{Task: task, K: 2, Workers: 4}
				want, err := core.RunReference(ds, spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Run(spec)
				if err != nil {
					t.Fatalf("%v %s warm=%v: %v", task, b.name, warm, err)
				}
				assertResultsIdentical(t, task, got, want)
			}
		}
	}
}

// assertResultsIdentical requires bit-identical task outputs.
func assertResultsIdentical(t *testing.T, task core.Task, got, want *core.Results) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%v: count %d vs %d", task, got.Count(), want.Count())
	}
	switch task {
	case core.TaskHistogram:
		for i := range want.Histograms {
			g, w := got.Histograms[i], want.Histograms[i]
			if g.ID != w.ID || !stats.ExactEqual(g.Histogram.Min, w.Histogram.Min) ||
				!stats.ExactEqual(g.Histogram.Max, w.Histogram.Max) {
				t.Fatalf("%v consumer %d: range differs", task, w.ID)
			}
			for b := range w.Histogram.Counts {
				if g.Histogram.Counts[b] != w.Histogram.Counts[b] {
					t.Fatalf("%v consumer %d bucket %d: %d vs %d",
						task, w.ID, b, g.Histogram.Counts[b], w.Histogram.Counts[b])
				}
			}
		}
	case core.TaskThreeLine:
		for i := range want.ThreeLines {
			g, w := got.ThreeLines[i], want.ThreeLines[i]
			if g.ID != w.ID || !stats.ExactEqual(g.HeatingGradient, w.HeatingGradient) ||
				!stats.ExactEqual(g.BaseLoad, w.BaseLoad) {
				t.Fatalf("%v consumer %d: %+v vs %+v", task, w.ID, g, w)
			}
		}
	case core.TaskPAR:
		for i := range want.Profiles {
			g, w := got.Profiles[i], want.Profiles[i]
			if g.ID != w.ID {
				t.Fatalf("%v row %d: id %d vs %d", task, i, g.ID, w.ID)
			}
			for j := range w.Profile {
				if !stats.ExactEqual(g.Profile[j], w.Profile[j]) {
					t.Fatalf("%v consumer %d hour %d: %v vs %v",
						task, w.ID, j, g.Profile[j], w.Profile[j])
				}
			}
		}
	case core.TaskSimilarity:
		for i := range want.Similar {
			g, w := got.Similar[i], want.Similar[i]
			if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
				t.Fatalf("%v row %d: shape differs", task, i)
			}
			for j := range w.Matches {
				if g.Matches[j].ID != w.Matches[j].ID ||
					!stats.ExactEqual(g.Matches[j].Score, w.Matches[j].Score) {
					t.Fatalf("%v consumer %d match %d: %+v vs %+v",
						task, w.ID, j, g.Matches[j], w.Matches[j])
				}
			}
		}
	}
}
