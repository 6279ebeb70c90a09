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
				cur, err := e.NewCursor()
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
	t.Run("warm", func(t *testing.T) {
		e := pagedEngine(t, dir, 0)
		if err := e.Warm(); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			return cur
		})
	})
}

func TestPartitionConformance(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 7, 10, 64)
	for _, b := range budgets(64) {
		t.Run(b.name, func(t *testing.T) {
			e := pagedEngine(t, dir, b.bytes)
			cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
		})
	}
	t.Run("warm", func(t *testing.T) {
		e := pagedEngine(t, dir, 0)
		if err := e.Warm(); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})
}

// TestZeroBudgetCachesNothing: at the default budget every block of
// every scan is read from the file, and nothing is kept.
func TestZeroBudgetCachesNothing(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 6, 10, 64) // 6 consumers x 4 blocks
	e := pagedEngine(t, dir, 0)
	cur, err := e.NewCursor()
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
	if e.decoded != nil {
		t.Fatal("a cold scan installed the decoded dataset")
	}
}

// TestDecodeBlockMatchesPager: a summary cursor's DecodeBlock and the
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
		sc := newSummaryCursor(st, 0, st.consumers)
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
