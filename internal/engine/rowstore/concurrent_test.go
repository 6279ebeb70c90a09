package rowstore

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// drainAll reads a cursor to its end. It reports failures with t.Error,
// so it is safe on any goroutine.
func drainAll(t *testing.T, cur core.Cursor) []*timeseries.Series {
	t.Helper()
	var out []*timeseries.Series
	for {
		s, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Errorf("Next: %v", err)
			return out
		}
		out = append(out, s)
	}
}

// drainPartitions drains up to w partition cursors from w goroutines and
// returns their series in household order.
func drainPartitions(t *testing.T, e *Engine, w int) []*timeseries.Series {
	t.Helper()
	curs, err := e.NewCursors(w)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]*timeseries.Series, len(curs))
	var wg sync.WaitGroup
	for i, cur := range curs {
		wg.Add(1)
		go func(i int, cur core.Cursor) {
			defer wg.Done()
			parts[i] = drainAll(t, cur)
		}(i, cur)
	}
	wg.Wait()
	var out []*timeseries.Series
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// writeExact is writeSource returning the dataset as the text holds it
// (six significant digits), which is what the store must give back bit
// for bit.
func writeExact(t *testing.T, consumers, days int) (*meterdata.Source, *timeseries.Dataset) {
	t.Helper()
	src, _ := writeSource(t, consumers, days)
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, ds
}

// diffSeries reports the first difference between two drains, bit for bit.
func diffSeries(got, want []*timeseries.Series) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d series, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || len(g.Readings) != len(w.Readings) {
			return fmt.Errorf("series %d: household %d with %d readings, want %d with %d",
				i, g.ID, len(g.Readings), w.ID, len(w.Readings))
		}
		for h := range w.Readings {
			if math.Float64bits(g.Readings[h]) != math.Float64bits(w.Readings[h]) {
				return fmt.Errorf("household %d hour %d: %v, want %v", w.ID, h, g.Readings[h], w.Readings[h])
			}
		}
	}
	return nil
}

func sameSeries(t *testing.T, got, want []*timeseries.Series) {
	t.Helper()
	if err := diffSeries(got, want); err != nil {
		t.Fatal(err)
	}
}

// loadThenOpen bulk-loads src into a fresh directory with a roomy pool
// and reopens it with the given options.
func loadThenOpen(t *testing.T, src *meterdata.Source, layout Layout, opts ...Option) *Engine {
	t.Helper()
	dir := t.TempDir()
	loader := New(dir, WithLayout(layout))
	if _, err := loader.Load(src); err != nil {
		t.Fatal(err)
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	e := New(dir, opts...)
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// TestParallelDrainSmallPool drains W partition cursors from W
// goroutines over a pool of 2W frames: every reader holds a leaf and a
// heap page, so frames are evicted while the other readers hold their
// pins. The union must be the serial drain, and the pool must never run
// out where the serial drain fits.
func TestParallelDrainSmallPool(t *testing.T) {
	src, ds := writeExact(t, 16, 40)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, w := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%v/W%d", layout, w), func(t *testing.T) {
				e := loadThenOpen(t, src, layout, WithPoolPages(2*w))
				cur, err := e.NewCursor()
				if err != nil {
					t.Fatal(err)
				}
				serial := drainAll(t, cur)
				sameSeries(t, serial, ds.Series)
				for rep := 0; rep < 3; rep++ {
					sameSeries(t, drainPartitions(t, e, w), serial)
				}
				// Asking for more partitions than the pool can pin is
				// capped, not refused and not left to fail mid-scan.
				curs, err := e.NewCursors(4 * w)
				if err != nil || len(curs) != w {
					t.Fatalf("NewCursors(%d) over %d frames: %d cursors, err %v; want %d", 4*w, 2*w, len(curs), err, w)
				}
				sameSeries(t, drainPartitions(t, e, 4*w), serial)
			})
		}
	}
}

// TestConcurrentMissReadsOnce has four readers scan the same households
// at once over a pool that holds the whole table: a page two readers
// miss on together is read from the file once and seen by both, so the
// miss count is the serial scan's.
func TestConcurrentMissReadsOnce(t *testing.T) {
	src, ds := writeExact(t, 8, 40)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := loadThenOpen(t, src, layout)
			_, opened := e.PoolStats()
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, drainAll(t, cur), ds.Series)
			_, serial := e.PoolStats()
			serial -= opened

			e = loadThenOpen(t, src, layout)
			_, opened = e.PoolStats()
			got := make([][]*timeseries.Series, 4)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cur, err := e.NewCursor()
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = drainAll(t, cur)
				}(i)
			}
			wg.Wait()
			for _, g := range got {
				sameSeries(t, g, ds.Series)
			}
			if _, misses := e.PoolStats(); misses-opened != serial {
				t.Errorf("4 concurrent scans read %d pages, one serial scan reads %d", misses-opened, serial)
			}
		})
	}
}

// TestPartitionDrainsDuringAppendCheckpoint keeps partition cursors
// draining the published prefix while a writer appends hourly batches
// and checkpoints on a WAL-armed engine. Readers share the table latch
// and the writer excludes them, so every drain is the bulk-loaded base,
// bit for bit, however the pages and the tree move underneath.
func TestPartitionDrainsDuringAppendCheckpoint(t *testing.T) {
	src, ds := writeExact(t, 9, 4)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	base := len(ds.Temperature.Values)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(layout), WithWAL(wal.SyncBatch), WithPoolPages(16))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := diffSeries(drainPartitions(t, e, 3), ds.Series); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for h := 0; h < 60 && !t.Failed(); h++ {
				if err := e.Append(hourBatch(ids, base+h)); err != nil {
					t.Errorf("append hour %d: %v", base+h, err)
				}
				if h%8 == 7 {
					if err := e.Checkpoint(); err != nil {
						t.Errorf("checkpoint: %v", err)
					}
				}
			}
			close(stop)
			readers.Wait()
			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for id, row := range drainSnap(t, cur) {
				if len(row) != base+60 {
					t.Errorf("household %d: snapshot of %d hours, want %d", id, len(row), base+60)
				}
			}
		})
	}
}

// TestExtractionAllocatesPerConsumer pins the extraction of one 365-day
// consumer at the series and its readings: no allocation per tuple, and
// no temperature array once the engine has the column.
func TestExtractionAllocatesPerConsumer(t *testing.T) {
	src, ds := writeExact(t, 2, 365)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := loadThenOpen(t, src, layout)
			id := ds.Series[1].ID
			if _, err := e.Temperature(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := e.readSeriesShared(id, basePrefix); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("extracting %d readings allocates %.0f times, want 2 (the series and its readings)",
					len(ds.Series[1].Readings), allocs)
			}
		})
	}
}

// TestFailedFetchLeavesPoolIntact: a fetch that fails must leave the
// map, the LRU list and every other page exactly as they were, whether
// the pool had room for the page or would have evicted for it.
func TestFailedFetchLeavesPoolIntact(t *testing.T) {
	for _, capacity := range []int{8, 2} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			pf, err := openPagedFile(t.TempDir() + "/t.db")
			if err != nil {
				t.Fatal(err)
			}
			defer pf.close()
			bp := newBufferPool(pf, capacity)
			for i := 0; i < 2; i++ {
				fr, err := bp.allocate()
				if err != nil {
					t.Fatal(err)
				}
				fr.data[0] = byte(0xA0 + i)
				bp.unpin(fr, true)
			}
			if _, err := bp.fetch(99); err == nil {
				t.Fatal("fetch past the end of the file: want error")
			}
			if len(bp.frames) != 2 {
				t.Fatalf("pool holds %d frames after a failed fetch, want 2", len(bp.frames))
			}
			for i := 0; i < 2; i++ {
				fr, err := bp.fetch(PageID(i))
				if err != nil {
					t.Fatal(err)
				}
				if fr.id != PageID(i) || fr.data[0] != byte(0xA0+i) || !fr.dirty {
					t.Errorf("page %d after a failed fetch: frame id %d, byte %#x, dirty %v", i, fr.id, fr.data[0], fr.dirty)
				}
				bp.unpin(fr, false)
			}
		})
	}
}

// TestBadIndexEntries plants index entries that do not address the
// household's own tuples: a TID past the end of the file, and a TID of
// the neighbour's tuple. Extraction must fail with an error, through
// the cursor and the pipeline alike, and leave the next read of a good
// household bit-identical.
func TestBadIndexEntries(t *testing.T) {
	src, ds := writeExact(t, 3, 10)
	victim, neighbour := ds.Series[0], ds.Series[1]
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, name := range []string{"stale", "neighbour"} {
			t.Run(fmt.Sprintf("%v/%s", layout, name), func(t *testing.T) {
				e := New(t.TempDir(), WithLayout(layout))
				defer e.Close()
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
				// One entry past the household's last: every read of the
				// household walks onto it.
				last, _, err := e.table.maxSeq(victim.ID)
				if err != nil {
					t.Fatal(err)
				}
				bad := key{ID: uint64(victim.ID), Seq: last + 1}
				tid := TID{Page: e.pf.nPages + 7}
				if name == "neighbour" {
					var ok bool
					if tid, ok, err = e.table.index.get(key{ID: uint64(neighbour.ID)}); err != nil || !ok {
						t.Fatalf("neighbour's first tuple: %v %v", ok, err)
					}
				}
				if err := e.table.index.insert(bad, tid); err != nil {
					t.Fatal(err)
				}
				_, err = e.readSeriesShared(victim.ID, basePrefix)
				if err == nil || !strings.HasPrefix(err.Error(), "rowstore:") {
					t.Fatalf("reading through a %s index entry: err = %v, want a rowstore error", name, err)
				}
				if name == "neighbour" && !strings.Contains(err.Error(), fmt.Sprintf("(%d, %d)", bad.ID, bad.Seq)) {
					t.Errorf("error %q does not name the index key", err)
				}
				for _, policy := range []core.FailPolicy{core.FailFast, core.Quarantine} {
					res, err := e.Run(core.Spec{Task: core.TaskHistogram, FailPolicy: policy})
					if err == nil {
						for _, h := range res.Histograms {
							if h.ID == victim.ID {
								t.Errorf("%v: household %d got a histogram out of a bad index entry", policy, victim.ID)
							}
						}
					}
				}
				got, err := e.readSeriesShared(neighbour.ID, basePrefix)
				if err != nil {
					t.Fatal(err)
				}
				sameSeries(t, []*timeseries.Series{got}, []*timeseries.Series{neighbour})
			})
		}
	}
}

// TestTornDownCursorsReportNotLoaded: a cursor that outlives its
// engine's storage reports ErrNotLoaded, whichever kind it is.
func TestTornDownCursorsReportNotLoaded(t *testing.T) {
	src, _ := writeSource(t, 3, 2)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	scan, err := e.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := e.NewCursors(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cur := range append(parts, scan) {
		if _, err := cur.Next(); !errors.Is(err, core.ErrNotLoaded) {
			t.Errorf("%T.Next after Close: err = %v, want ErrNotLoaded", cur, err)
		}
	}
}
