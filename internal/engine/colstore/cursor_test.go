package colstore

import (
	"io"
	"math"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
)

// budget is one block-cache budget a suite runs at.
type budget struct {
	name  string
	bytes int64
}

// budgets are the cache budgets every cursor suite runs at, for a store
// whose blocks hold blockRows rows: none, two blocks (so a scan misses
// on nearly every block), and more than any test store holds.
func budgets(blockRows int) []budget {
	return []budget{{"none", 0}, {"two-blocks", 2 * 8 * int64(blockRows)}, {"whole-store", 1 << 30}}
}

func TestCursorConformance(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 5, 10, 64)
	for _, b := range budgets(64) {
		t.Run(b.name, func(t *testing.T) {
			e := pagedEngine(t, dir, b.bytes)
			cursortest.Run(t, func(t *testing.T) core.Cursor {
				cur, err := cursortest.Open(e)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := cur.(*pagedCursor); !ok {
					t.Fatalf("engine yielded %T, want *pagedCursor", cur)
				}
				return cur
			})
		})
	}
}

// TestPartitionConformance holds the engine's partitions to the
// partition contract at every budget. They summarize, so the suite
// holds their summaries to their rows too.
func TestPartitionConformance(t *testing.T) {
	dir := t.TempDir()
	ds := buildSegments(t, dir, 7, 10, 64)
	for _, b := range budgets(64) {
		t.Run(b.name, func(t *testing.T) {
			e := pagedEngine(t, dir, b.bytes)
			curs, err := e.NewCursors(3)
			if err != nil {
				t.Fatal(err)
			}
			for p, cur := range curs {
				if _, ok := cur.(core.SummaryCursor); !ok {
					t.Fatalf("partition %d (%T) does not summarize", p, cur)
				}
				_ = cur.Close()
			}
			cursortest.RunPartitioned(t, cursortest.IDs(ds), func(t *testing.T) core.PartitionedSource { return e })
		})
	}
}

// TestZeroBudgetCachesNothing: at the default budget every block of
// every scan is read from the file, and nothing is kept.
func TestZeroBudgetCachesNothing(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 6, 10, 64) // 6 consumers x 4 blocks
	e := pagedEngine(t, dir, 0)
	cur, err := cursortest.Open(e)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, cur, nil)
	curs, err := e.NewCursors(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range curs {
		drainAll(t, cur, nil)
	}
	if hits, misses, resident := e.PagerStats(); hits != 0 || misses != 2*6*4 || resident != 0 || len(e.pager.frames) != 0 {
		t.Fatalf("after two scans: hits=%d misses=%d resident=%d frames=%d, want 0, %d, 0 and 0",
			hits, misses, resident, len(e.pager.frames), 2*6*4)
	}
}

// TestDecodeBlockMatchesPager: a paged cursor's DecodeBlock and the
// pager yield the same bits for every block, across block shapes
// (constant, periodic, NaN-bearing, ragged tail).
func TestDecodeBlockMatchesPager(t *testing.T) {
	n := 24*7 + 5
	series := encodeTestSeries(t, 10, n)
	for _, blockRows := range []int{1, 7, 24, 64, DefaultBlockRows} {
		path := t.TempDir() + "/" + SegmentFileName
		writeSegmentWith(t, path, make([]float64, n), series, WithBlockRows(blockRows))
		st, err := openStore(path)
		if err != nil {
			t.Fatal(err)
		}
		p := newPager(st, 0)
		sc := newPagedCursor(p, 0, st.consumers)
		row := make([]float64, n)
		dst := make([]float64, blockRows)
		var area []byte
		for c := 0; c < st.consumers; c++ {
			if area, err = p.readConsumer(c, row, area); err != nil {
				t.Fatal(err)
			}
			_, blocks, err := sc.NextSummary()
			if err != nil {
				t.Fatal(err)
			}
			// Backwards, so a block is decoded out of the area read for
			// another one.
			for b := len(blocks) - 1; b >= 0; b-- {
				bs := blocks[b]
				if err := sc.DecodeBlock(b, dst); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < bs.Count; j++ {
					if math.Float64bits(dst[j]) != math.Float64bits(row[bs.Start+j]) {
						t.Fatalf("blockRows=%d consumer %d block %d row %d: %x from DecodeBlock, %x from the pager",
							blockRows, c, b, j, math.Float64bits(dst[j]), math.Float64bits(row[bs.Start+j]))
					}
				}
			}
		}
		if _, _, err := sc.NextSummary(); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
		st.close()
	}
}

// TestDecodeBlockNeedsACurrentSummary: DecodeBlock decodes only a block
// of the consumer the last NextSummary returned. Before the first
// NextSummary, once NextSummary has returned io.EOF, after Next, after
// Reset and after Close there is none, and it must fail without
// writing dst: at EOF the position still points past the last
// consumer, whose block it must not decode again.
func TestDecodeBlockNeedsACurrentSummary(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 3, 10, 64)
	e := pagedEngine(t, dir, 0)
	sc, err := e.NewSummaryCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	dst := make([]float64, 64)
	refuses := func(when string) {
		t.Helper()
		dst[0] = -7.25
		if err := sc.DecodeBlock(0, dst); err == nil || dst[0] != -7.25 {
			t.Fatalf("DecodeBlock(0) %s: error %v, dst[0] = %v; want an error and no write", when, err, dst[0])
		}
	}
	refuses("before the first NextSummary")
	for {
		_, _, err := sc.NextSummary()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.DecodeBlock(0, dst); err != nil {
			t.Fatalf("DecodeBlock(0) after NextSummary: %v", err)
		}
	}
	refuses("after io.EOF")
	if err := sc.Reset(); err != nil {
		t.Fatal(err)
	}
	refuses("after Reset")
	if _, _, err := sc.NextSummary(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	refuses("after Next")
	if _, _, err := sc.NextSummary(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	refuses("after Close")
}
