package rowstore

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// The row layout decodes a household's entries one heap page at a time
// (decodeRowRun). These tests read runs at the page's edges — a run
// that leaves one page for the next, a prefix that ends mid-page and
// pages that hold one tuple of each household — at a pool that every
// read overflows, a small one and one that holds the table, and
// demand the stored readings bit for bit.
var runPools = []int{4, 16, 3072}

// tidOf is the TID the index stores for k.
func tidOf(t *testing.T, tb *table, k key) TID {
	t.Helper()
	tid, ok, err := tb.index.get(k)
	if err != nil || !ok {
		t.Fatalf("index entry (%d, %d): found %v, %v", k.ID, k.Seq, ok, err)
	}
	return tid
}

// sameBits fails unless got holds exactly the bits of want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for h := range want {
		if math.Float64bits(got[h]) != math.Float64bits(want[h]) {
			t.Fatalf("%s hour %d: %v, want %v", what, h, got[h], want[h])
		}
	}
}

// TestRowRunCrossesHeapPage: a household's 960 tuples start on the page
// its predecessor ends on and fill several more, so its runs leave one
// page for the next and its entries cross leaves. The scan cursor, the
// partition cursors and the temperature column read back bit for bit.
func TestRowRunCrossesHeapPage(t *testing.T) {
	src, ds := writeExact(t, 3, 40)
	prev, s := ds.Series[0], ds.Series[1]
	last := uint64(len(s.Readings) - 1)
	for _, pool := range runPools {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			e := loadThenOpen(t, src, LayoutRows, WithPoolPages(pool))
			first := tidOf(t, e.table, key{ID: uint64(s.ID)})
			if tidOf(t, e.table, key{ID: uint64(prev.ID), Seq: last}).Page != first.Page {
				t.Fatalf("household %d does not start on the page household %d ends on", s.ID, prev.ID)
			}
			if tidOf(t, e.table, key{ID: uint64(s.ID), Seq: last}).Page == first.Page {
				t.Fatalf("household %d's tuples fit one page", s.ID)
			}
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, drainAll(t, cur), ds.Series)
			sameSeries(t, drainPartitions(t, e, 2), ds.Series)
			temp, err := e.Temperature()
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "temperature", temp.Values, ds.Temperature.Values)
		})
	}
}

// TestSnapshotPrefixCutsHeapPage: live hours arrive a batch per hour, so
// a household's consecutive live tuples share heap pages; a snapshot
// taken between two batches ends each household's run mid-page. It must
// read every captured hour and no later one, after more batches land.
func TestSnapshotPrefixCutsHeapPage(t *testing.T) {
	src, ds := writeExact(t, 4, 2)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	baseN := len(ds.Temperature.Values)
	const captured, extra = 7, 5
	for _, pool := range runPools {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			e := loadThenOpen(t, src, LayoutRows, WithPoolPages(pool))
			for h := baseN; h < baseN+captured+extra; h++ {
				if h == baseN+captured {
					cur, _, err := e.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					defer cur.Close()
					defer checkSnapshot(t, cur, ds, baseN+captured)
				}
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			cut := uint64(baseN + captured)
			for _, id := range ids {
				a := tidOf(t, e.table, key{ID: uint64(id), Seq: cut - 1})
				b := tidOf(t, e.table, key{ID: uint64(id), Seq: cut})
				if a.Page != b.Page {
					t.Fatalf("household %d: the prefix ends at a page boundary", id)
				}
			}
		})
	}
}

// checkSnapshot drains a snapshot taken at n committed hours: the loaded
// readings, then liveVal's, bit for bit.
func checkSnapshot(t *testing.T, cur core.Cursor, ds *timeseries.Dataset, n int) {
	t.Helper()
	rows := drainSnap(t, cur)
	for _, s := range ds.Series {
		want := append([]float64(nil), s.Readings...)
		for h := len(want); h < n; h++ {
			want = append(want, liveVal(s.ID, h))
		}
		sameBits(t, fmt.Sprintf("household %d", s.ID), rows[s.ID], want)
	}
}

// TestLiveHoursOneTuplePerPage: 256 households take an hour per batch,
// and a heap page holds 255 row tuples, so no page holds two live tuples
// of one household and every live run is one entry long.
func TestLiveHoursOneTuplePerPage(t *testing.T) {
	src, ds := writeExact(t, 256, 1)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	baseN := len(ds.Temperature.Values)
	const extra = 3
	for _, pool := range runPools {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			e := loadThenOpen(t, src, LayoutRows, WithPoolPages(pool))
			for h := baseN; h < baseN+extra; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range ids {
				seen := map[PageID]bool{}
				for h := baseN; h < baseN+extra; h++ {
					p := tidOf(t, e.table, key{ID: uint64(id), Seq: uint64(h)}).Page
					if seen[p] {
						t.Fatalf("household %d has two live tuples on page %d", id, p)
					}
					seen[p] = true
				}
			}
			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			checkSnapshot(t, cur, ds, baseN+extra)
			sameSeries(t, drainPartitions(t, e, 2), ds.Series)
		})
	}
}

// editTuple hands fn the stored bytes of the tuple the index entry k
// addresses, to change in place.
func editTuple(t *testing.T, tb *table, k key, fn func(tuple []byte)) {
	t.Helper()
	tid := tidOf(t, tb, k)
	fr, err := tb.heap.bp.fetch(tid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.heap.bp.unpin(fr, true)
	tuple, err := heapPageTuple(fr.data[:], tid.Slot)
	if err != nil {
		t.Fatal(err)
	}
	fn(tuple)
}

// TestHostileStoredIntegers plants stored integers that do not fit: a
// row tuple's hour (0xff000002, which is negative as a 32-bit int and
// past the series as a 64-bit one, and its index key's hour plus one),
// an array chunk's start and count at 2^31 or more, and a household's
// last index sequence at 2^31. Each is compared as the uint64 it is
// stored as before it becomes an int, so each must be refused with a
// rowstore error at either int width, by extraction — the cursor, the
// temperature column and the pipeline — or, where it only sizes the
// live state, by Snapshot.
func TestHostileStoredIntegers(t *testing.T) {
	src, ds := writeExact(t, 3, 30)
	id := ds.Series[0].ID
	putHour := func(v uint32) func(*testing.T, *table) {
		return func(t *testing.T, tb *table) {
			editTuple(t, tb, key{ID: uint64(id), Seq: 2}, func(tu []byte) { putU32(tu, 8, v) })
		}
	}
	putChunk := func(seq uint64, off int, v uint32) func(*testing.T, *table) {
		return func(t *testing.T, tb *table) {
			editTuple(t, tb, key{ID: uint64(id), Seq: seq}, func(tu []byte) { putU32(tu, off, v) })
		}
	}
	const at31 = 1 << 31
	for _, tc := range []struct {
		name   string
		layout Layout
		plant  func(*testing.T, *table)
		live   bool // only Snapshot reads the planted value
	}{
		{"row hour 0xff000002", LayoutRows, putHour(0xff000002), false},
		{"row hour seq+1", LayoutRows, putHour(3), false},
		{"chunk start 2^31", LayoutArrays, putChunk(0, 8, at31), false},
		{"chunk count 2^31", LayoutArrays, putChunk(0, 12, at31), false},
		{"last chunk start 2^31", LayoutArrays, putChunk(1, 8, at31), true},
		{"last chunk count 2^31", LayoutArrays, putChunk(1, 12, at31), true},
		{"last row seq 2^31", LayoutRows, func(t *testing.T, tb *table) {
			if err := tb.index.insert(key{ID: uint64(id), Seq: at31}, tidOf(t, tb, key{ID: uint64(id)})); err != nil {
				t.Fatal(err)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(tc.layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			if tc.layout == LayoutArrays && e.table.seriesLen <= chunkHours {
				t.Fatalf("a household's %d hours fit one chunk", e.table.seriesLen)
			}
			tc.plant(t, e.table)
			// Reopen: the planted bytes are read from the file, and
			// nothing of the load is cached.
			if err := e.Open(); err != nil {
				t.Fatal(err)
			}
			refused := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.HasPrefix(err.Error(), "rowstore:") {
					t.Errorf("%s: err = %v, want a rowstore error", what, err)
				}
			}
			if tc.live {
				_, _, err := e.Snapshot()
				refused("Snapshot", err)
				return
			}
			_, err := e.readSeriesShared(id, basePrefix, nil)
			refused("extraction", err)
			_, err = e.Temperature()
			refused("Temperature", err)
			_, err = e.Run(core.Spec{Task: core.TaskHistogram, FailPolicy: core.FailFast})
			var pe *core.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("histogram: recovered panic: %v", err)
			}
			refused("histogram", err)
		})
	}
}
