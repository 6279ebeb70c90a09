package rowstore

import (
	"fmt"
	"testing"

	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// livePages maps each household to the heap pages that hold its tuples
// from hour from on: row tuples of those hours, or chunks that start
// there or later. A row tuple's hour lies where a chunk's start does.
func livePages(t *testing.T, tb *table, from int) map[timeseries.ID]map[PageID]bool {
	t.Helper()
	out := map[timeseries.ID]map[PageID]bool{}
	if err := tb.heap.scan(func(tid TID, tu []byte) error {
		owner, start, _, err := chunkBounds(tu)
		if err != nil {
			return err
		}
		if start < uint64(from) {
			return nil
		}
		id := timeseries.ID(owner)
		if out[id] == nil {
			out[id] = map[PageID]bool{}
		}
		out[id][tid.Page] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLivePlacementSurvivesCrash: 40 households take 600 live hours, an
// hour per batch, with a checkpoint after 150, a crash after 300 and a
// replay of the log, and then 300 more. Each household's live tuples go
// on the page of its last tuple while it has room and on a fresh page
// of their own after that, so they sit on at most ⌈600 / tuples per
// page⌉ + 1 heap pages (the one is the page its loaded tuples end on)
// in both layouts, however the hours arrived: live, replayed onto the
// checkpointed table, whose last-tuple TIDs the first touch reads from
// the index and checks, or live again. Heap order interleaved them, six
// hours of a household to a page. The snapshot reads back bit for bit,
// at every pool size of runPools.
func TestLivePlacementSurvivesCrash(t *testing.T) {
	src, ds := writeExact(t, 40, 2)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, pool := range runPools {
			t.Run(fmt.Sprintf("%v/pool%d", layout, pool), func(t *testing.T) {
				livePlacement(t, src, ds, layout, pool)
			})
		}
	}
}

// livePlacement is one case of TestLivePlacementSurvivesCrash.
func livePlacement(t *testing.T, src *meterdata.Source, ds *timeseries.Dataset, layout Layout, pool int) {
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	baseN := len(ds.Temperature.Values)
	const live = 600
	dir := t.TempDir()
	e := New(dir, WithLayout(layout), WithWAL(wal.SyncOff), WithPoolPages(pool))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	appendHours := func(e *Engine, from, to int) {
		t.Helper()
		for h := from; h < to; h++ {
			if err := e.Append(hourBatch(ids, h)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendHours(e, baseN, baseN+150)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendHours(e, baseN+150, baseN+300)
	e.Crash()

	re := New(dir, WithWAL(wal.SyncOff), WithPoolPages(pool))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	appendHours(re, baseN+300, baseN+live)

	// A row tuple is 28 bytes and an hour's chunk 32, each with a
	// 4-byte slot entry.
	size := rowTupleSize
	if layout == LayoutArrays {
		size = 16 + 16
	}
	perPage := (PageSize - heapHeaderSize) / (size + slotSize)
	limit := (live+perPage-1)/perPage + 1
	pages := livePages(t, re.table, baseN)
	for _, id := range ids {
		if n := len(pages[id]); n == 0 || n > limit {
			t.Errorf("household %d's %d live hours lie on %d heap pages, want 1 to %d", id, live, n, limit)
		}
	}
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	checkSnapshot(t, cur, ds, baseN+live)
}

// TestSnapshotPoolMissesHoldLevel: after a reopen, the first touch, an
// emptied pool and one warming snapshot, a second snapshot's pool misses
// are its base walk's ring reads alone, the same at 24 and at 480 live
// hours. The index phase reads a household's live leaves and heap pages
// through the pool, which keeps them; read through the cursor's ring, they
// were read again on every query, more of them the more hours were live.
func TestSnapshotPoolMissesHoldLevel(t *testing.T) {
	src, ds := writeExact(t, 16, 30)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	baseN := len(ds.Temperature.Values)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			misses := map[int]int64{}
			for _, live := range []int{24, 480} {
				dir := t.TempDir()
				e := New(dir, WithLayout(layout))
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
				for h := baseN; h < baseN+live; h++ {
					if err := e.Append(hourBatch(ids, h)); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				re := New(dir)
				defer re.Close()
				if err := re.Open(); err != nil {
					t.Fatal(err)
				}
				// The first touch reads the live state (in the array layout
				// through each household's last chunk) into the pool;
				// Release empties it before the warming snapshot.
				cur, _, err := re.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				cur.Close()
				if err := re.Release(); err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					_, m0 := re.PoolStats()
					cur, _, err := re.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					checkSnapshot(t, cur, ds, baseN+live)
					cur.Close()
					_, m1 := re.PoolStats()
					misses[live] = m1 - m0
				}
			}
			t.Logf("second snapshot's pool misses: %d at 24 live hours, %d at 480", misses[24], misses[480])
			if misses[24] != misses[480] {
				t.Errorf("a second snapshot missed %d pages at 24 live hours and %d at 480: the live pages were read again", misses[24], misses[480])
			}
		})
	}
}
