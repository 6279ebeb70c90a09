package rowstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// counters reads the pool's counters of reads, pages read and frames
// made, and how many ring frames the map holds.
func (bp *bufferPool) counters() (preads, misses, made int64, ringMapped int) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if fr.ring != nil {
			ringMapped++
		}
	}
	return bp.preads, bp.misses, bp.made, ringMapped
}

// coldDrain empties e's pool, drains e at w partitions and returns the
// reads, the pages read and the frames made by the drain.
func coldDrain(t *testing.T, e *Engine, w int, want []*timeseries.Series) (preads, misses, made int64) {
	t.Helper()
	if err := e.Release(); err != nil {
		t.Fatal(err)
	}
	p0, m0, f0, _ := e.bp.counters()
	sameSeries(t, drainPartitions(t, e, w), want)
	p1, m1, f1, _ := e.bp.counters()
	return p1 - p0, m1 - m0, f1 - f0
}

// bulkSizes is a table per layout of about a thousand pages, so that a
// cold drain of it reads many runs through each ring.
var bulkSizes = map[Layout][2]int{LayoutRows: {16, 365}, LayoutArrays: {48, 365}}

// TestColdDrainReadsThroughRing drains a table at one and at four
// partitions. Each cursor reads through its own ring, so the drain makes
// about a ring of frames per cursor and not a frame per page; it reads
// each page once, as reads through a pool that holds the whole table
// do; most reads are 16-page runs; and no ring frame is left in the map
// after EOF or Close.
func TestColdDrainReadsThroughRing(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		size := bulkSizes[layout]
		src, ds := writeExact(t, size[0], size[1])
		// Reads through a pool that holds the table miss on the pages a
		// scan needs, each once.
		roomy := loadThenOpen(t, src, layout, WithPoolPages(1<<20))
		if err := roomy.Release(); err != nil {
			t.Fatal(err)
		}
		_, opened := roomy.PoolStats()
		for _, s := range ds.Series {
			if _, err := roomy.readSeriesShared(s.ID, basePrefix, nil); err != nil {
				t.Fatal(err)
			}
		}
		_, need := roomy.PoolStats()
		need -= opened

		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/W%d", layout, w), func(t *testing.T) {
				e := loadThenOpen(t, src, layout)
				preads, misses, made := coldDrain(t, e, w, ds.Series)
				pages, height, consumers := int64(e.pf.nPages), int64(e.table.index.height), int64(len(ds.Series))
				t.Logf("a %d-page table: %d reads of %d pages, %d frames made", pages, preads, misses, made)

				if limit := int64(w*ringFrames) + height + consumers; made > limit {
					t.Errorf("the drain made %d frames, want at most %d (a %d-page table)", made, limit, pages)
				}
				// Partition boundaries may share a page, and a run at the
				// end of one partition may read ahead into the next.
				if slack := height + int64((w-1)*runPages); misses < need || misses > need+slack {
					t.Errorf("the drain read %d pages, want the %d the pool reads (+%d)", misses, need, slack)
				}
				if limit := (pages+runPages-1)/runPages + height + 2*consumers + int64(w); preads > limit {
					t.Errorf("the drain made %d reads of a %d-page table, want at most %d", preads, pages, limit)
				}
				if _, _, _, mapped := e.bp.counters(); mapped != 0 {
					t.Errorf("%d ring frames left in the map after EOF", mapped)
				}

				// A partial drain: each cursor reads one household and is
				// closed.
				curs, err := e.NewCursors(w)
				if err != nil {
					t.Fatal(err)
				}
				for _, cur := range curs {
					if _, err := cur.Next(); err != nil {
						t.Fatal(err)
					}
					if err := cur.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, _, mapped := e.bp.counters(); mapped != 0 {
					t.Errorf("%d ring frames left in the map after Close", mapped)
				}
				if n := e.bp.pinnedFrames(); n != 0 {
					t.Errorf("%d frames still pinned", n)
				}
			})
		}
	}
}

// TestFailedRunRead fails the read of a 16-page run while readers wait
// on pages of it: every frame of the run leaves the map, every waiter
// gets the reader's error, and the ring reads the pages again once the
// file reads again.
func TestFailedRunRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.db")
	pf, err := openPagedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pf.close() }()
	bp := newBufferPool(pf, 4)
	const pages = 40
	for i := 0; i < pages; i++ {
		fr, err := bp.allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.data[0] = byte(i)
		bp.unpin(fr, true)
	}
	if err := bp.reset(); err != nil {
		t.Fatal(err)
	}

	r := newPageRing(bp)
	const first = 3
	bp.mu.Lock()
	// The page before the run is mapped, so the miss continues a scan.
	bp.frames[first-1] = &frame{id: first - 1, data: new([PageSize]byte)}
	start, run, _ := r.claim(first)
	delete(bp.frames, first-1)
	if len(run) != runPages {
		t.Fatalf("claimed a run of %d pages, want %d", len(run), runPages)
	}
	waiters := []PageID{first, first + 1, first + runPages/2, first + runPages - 1}
	errs := make(chan error, len(waiters))
	for _, id := range waiters {
		go func(id PageID) {
			fr, err := bp.fetch(id)
			if err == nil {
				bp.unpin(fr, false)
			}
			errs <- err
		}(id)
	}
	bp.mu.Unlock()
	for waiting := false; !waiting; {
		bp.mu.Lock()
		waiting = bp.hits == int64(len(waiters))
		bp.mu.Unlock()
	}

	_ = pf.f.Close()
	bp.mu.Lock()
	readErr := bp.load(run, r.slab[start*PageSize:(start+len(run))*PageSize])
	if readErr == nil {
		t.Fatal("a read of a closed file: want error")
	}
	for range waiters {
		if err := <-errs; err != readErr {
			t.Errorf("a reader waiting on the run got %v, want the read's error %v", err, readErr)
		}
	}
	if _, _, _, mapped := bp.counters(); mapped != 0 || len(bp.frames) != 0 {
		t.Errorf("after a failed run the map holds %d frames (%d of the ring), want none", len(bp.frames), mapped)
	}

	if pf.f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	for _, id := range waiters {
		fr, err := r.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.data[0] != byte(id) {
			t.Errorf("page %d reads back as page %d", id, fr.data[0])
		}
		bp.unpin(fr, false)
	}
	r.release()
	if _, _, _, mapped := bp.counters(); mapped != 0 {
		t.Errorf("%d ring frames in the map after release", mapped)
	}
}

// TestReaderZeroFillsItsRow: a cursor's row is the drain's slot, which
// may hold the previous consumer's readings, so hours the household
// does not store must read as zero.
func TestReaderZeroFillsItsRow(t *testing.T) {
	src, ds := writeExact(t, 3, 10)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := loadThenOpen(t, src, layout, WithPoolPages(4))
			stored := len(ds.Temperature.Values)
			// A published length past the stored tuples, as an interrupted
			// bulk append would leave.
			e.table.seriesLen = stored + 5
			row := make([]float64, stored+5)
			for i := range row {
				row[i] = math.NaN()
			}
			rd := &reader{}
			rd.TakeRow(row)
			want := ds.Series[1]
			s, err := e.readSeriesShared(want.ID, basePrefix, rd)
			if err != nil {
				t.Fatal(err)
			}
			if &s.Readings[0] != &row[0] {
				t.Fatal("the series was not decoded into the row the cursor took")
			}
			for h, v := range s.Readings {
				w := 0.0
				if h < stored {
					w = want.Readings[h]
				}
				if math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("hour %d: %v, want %v", h, v, w)
				}
			}
			rd.release(e)
		})
	}
}

// TestCursorsTakeRows: the scan, partition and snapshot cursors decode
// into the row they are handed.
func TestCursorsTakeRows(t *testing.T) {
	src, ds := writeExact(t, 4, 10)
	e := loadThenOpen(t, src, LayoutRows)
	scan, err := cursortest.Open(e)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := e.NewCursors(2)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range append(parts, scan, snap) {
		row := make([]float64, len(ds.Temperature.Values))
		cur.(core.RowTaker).TakeRow(row)
		s, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if &s.Readings[0] != &row[0] {
			t.Errorf("%T decoded into a row of its own", cur)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
