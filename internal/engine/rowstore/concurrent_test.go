package rowstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
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
				cur, err := cursortest.Open(e)
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

// TestConcurrentMissReadsOnce has four readers read the same households
// at once through a pool that holds the whole table, as Temperature
// reads: a page two readers miss on together is read from the file
// once and seen by both, so the miss count is the serial pass's.
// Cursors read through rings of their own, which a lagging reader may
// find recycled; TestFailedRunRead holds the wait on a ring's run.
func TestConcurrentMissReadsOnce(t *testing.T) {
	src, ds := writeExact(t, 8, 40)
	readAll := func(t *testing.T, e *Engine) []*timeseries.Series {
		var got []*timeseries.Series
		for _, s := range ds.Series {
			g, err := e.readSeriesShared(s.ID, basePrefix, nil)
			if err != nil {
				t.Error(err)
				return nil
			}
			got = append(got, g)
		}
		return got
	}
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := loadThenOpen(t, src, layout)
			_, opened := e.PoolStats()
			sameSeries(t, readAll(t, e), ds.Series)
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
					got[i] = readAll(t, e)
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
				if _, err := e.readSeriesShared(id, basePrefix, nil); err != nil {
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
// the neighbour's first tuple. A read consults two of a household's
// entries at most: its first, where the heap walk starts, and the first
// past the walk's break, where the index phase takes over. A bad entry
// in either place must fail extraction with a rowstore error that names
// the entry's key, through the cursor and the pipeline alike, and leave
// the next read of a good household bit-identical. The break here is a
// day stored at the heap's tail (appendAtTail), whose tuples follow
// every loaded household's; it is read through a snapshot, the only view
// of hours stored after the load. A bad entry inside a clustered run is
// never read: the household reads bit-identical, through the cursor and
// the pipeline.
func TestBadIndexEntries(t *testing.T) {
	src, ds := writeExact(t, 3, 60)
	victim, neighbour := ds.Series[0], ds.Series[1]
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, where := range []string{"first", "past break", "inside run"} {
			for _, name := range []string{"stale", "neighbour"} {
				t.Run(fmt.Sprintf("%v/%s/%s", layout, where, name), func(t *testing.T) {
					e := New(t.TempDir(), WithLayout(layout))
					defer e.Close()
					if _, err := e.Load(src); err != nil {
						t.Fatal(err)
					}
					ref := ds
					bad := key{ID: uint64(victim.ID)}
					// src and run read the base, or with a day appended a
					// snapshot; upTo is the hours a read asks for.
					var src core.PartitionedSource = e
					run, upTo := e.Run, basePrefix
					switch where {
					case "past break":
						_, next, _, err := e.committedLen(victim.ID)
						if err != nil {
							t.Fatal(err)
						}
						bad.Seq = next
						delta := deltaFor(t, ds, 1)
						appendAtTail(t, e, delta, len(ds.Temperature.Values))
						ref = appended(ds, delta)
						upTo = len(ref.Temperature.Values)
						// The snapshot builds the live state, reading the
						// victim's temperature, before the entry goes bad.
						snap, _, err := e.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						defer snap.Close()
						src = snap
						run = func(spec core.Spec) (*core.Results, error) {
							res, _, err := exec.RunSnapshot(context.Background(), e, spec)
							return res, err
						}
					case "inside run":
						bad.Seq = 1
					}
					tid := TID{Page: e.pf.nPages + 7}
					if name == "neighbour" {
						tid = tidOf(t, e.table, key{ID: uint64(neighbour.ID)})
					}
					setEntry(t, e.table.index, bad, tid)
					if err := e.Release(); err != nil {
						t.Fatal(err)
					}
					spec := core.Spec{Task: core.TaskHistogram}
					if where == "inside run" {
						cur, err := cursortest.Open(src)
						if err != nil {
							t.Fatal(err)
						}
						sameSeries(t, drainAll(t, cur), ref.Series)
						got, err := run(spec)
						if err != nil {
							t.Fatal(err)
						}
						want, err := core.RunReference(ref, spec)
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, got, want)
						return
					}
					named := func(what string, err error) {
						t.Helper()
						if err == nil || !strings.HasPrefix(err.Error(), "rowstore:") {
							t.Fatalf("%s through a %s index entry: err = %v, want a rowstore error", what, name, err)
						}
						if !strings.Contains(err.Error(), fmt.Sprintf("(%d, %d)", bad.ID, bad.Seq)) {
							t.Errorf("%s: error %q does not name the index key", what, err)
						}
					}
					cur, err := cursortest.Open(src)
					if err != nil {
						t.Fatal(err)
					}
					defer cur.Close()
					_, err = cur.Next() // the victim is the first household
					named("cursor", err)
					for _, policy := range []core.FailPolicy{core.FailFast, core.Quarantine} {
						res, err := run(core.Spec{Task: core.TaskHistogram, FailPolicy: policy})
						if err != nil {
							named(fmt.Sprintf("pipeline, %v", policy), err)
							continue
						}
						for _, h := range res.Histograms {
							if h.ID == victim.ID {
								t.Errorf("%v: household %d got a histogram out of a bad index entry", policy, victim.ID)
							}
						}
						for _, f := range res.Failed {
							named(fmt.Sprintf("pipeline, %v", policy), f.Err)
						}
					}
					got, err := e.readSeriesShared(neighbour.ID, upTo, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameSeries(t, []*timeseries.Series{got}, ref.Series[1:2])
				})
			}
		}
	}
}

// appendAtTail stores delta's hours after each household's stored
// ones, from hour first, at the heap's tail through heap.insert and
// index.insert: whatever room the page of a household's last tuple has,
// the new tuples start a run of their own, so a read of the household
// breaks there. The published prefix stays the loaded one; a snapshot
// taken after sees the hours.
func appendAtTail(t *testing.T, e *Engine, delta *timeseries.Dataset, first int) {
	t.Helper()
	tb := e.table
	for _, s := range delta.Series {
		_, seq, _, err := e.committedLen(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		store := func(tuple []byte) error {
			tid, err := tb.heap.insert(tuple)
			if err != nil {
				return err
			}
			seq++
			return tb.index.insert(key{ID: uint64(s.ID), Seq: seq - 1}, tid)
		}
		if tb.layout == LayoutArrays {
			err = eachChunk(s.ID, first, s.Readings, delta.Temperature.Values, store)
		} else {
			var buf []byte
			for h, c := range s.Readings {
				buf = encodeRowTuple(buf, s.ID, first+h, delta.Temperature.Values[h], c)
				if err = store(buf); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// appended is ds with delta's hours after each household's own.
func appended(ds, delta *timeseries.Dataset) *timeseries.Dataset {
	out := &timeseries.Dataset{Temperature: &timeseries.Temperature{
		Values: append(append([]float64(nil), ds.Temperature.Values...), delta.Temperature.Values...),
	}}
	for i, s := range ds.Series {
		out.Series = append(out.Series, &timeseries.Series{
			ID:       s.ID,
			Readings: append(append([]float64(nil), s.Readings...), delta.Series[i].Readings...),
		})
	}
	return out
}

// setEntry points the index entry k, which must exist, at tid.
func setEntry(t *testing.T, bt *btree, k key, tid TID) {
	t.Helper()
	page, i, err := bt.seekLeaf(k)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := bt.bp.fetch(page)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.bp.unpin(fr, true)
	if n := int(nodeCount(fr.data[:])); i >= n || leafKey(fr.data[:], i) != k {
		t.Fatalf("no index entry (%d, %d)", k.ID, k.Seq)
	}
	leafSet(fr.data[:], i, k, tid)
}

// TestTornDownCursorsReportNotLoaded: a cursor that outlives its
// engine's storage reports ErrNotLoaded, whichever kind it is.
func TestTornDownCursorsReportNotLoaded(t *testing.T) {
	src, _ := writeSource(t, 3, 2)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	scan, err := cursortest.Open(e)
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
