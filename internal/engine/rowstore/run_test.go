package rowstore

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
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
			cur, err := cursortest.Open(e)
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

// TestLiveHoursOneTuplePerPage: 256 households store three hours past
// the published prefix, an hour of each household after the last's, as
// live Append placed them before it put a household's hours on pages of
// their own. A heap page holds 255 row tuples, so no page holds two of
// those tuples of one household and every run decodeRowRun reads is one
// entry long. The table is built by inserting into the heap's tail and
// the index directly, and the snapshot reads it back bit for bit.
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
			var buf []byte
			for h := baseN; h < baseN+extra; h++ {
				for _, id := range ids {
					buf = encodeRowTuple(buf, id, h, liveTemp(h), liveVal(id, h))
					tid, err := e.table.heap.insert(buf)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.table.index.insert(key{ID: uint64(id), Seq: uint64(h)}, tid); err != nil {
						t.Fatal(err)
					}
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
// an array chunk's start and count at 2^31 or more, a household's last
// index sequence at 2^31, an internal node's child and a leaf entry's
// TID page at 0x80000000. Each is compared as the uint64 or PageID it
// is stored as before it becomes an int or a page, so each must be
// refused with a rowstore error at either int width: by extraction —
// the cursor, the temperature column and the pipeline — or, where only
// the live state or the open reads it, by Snapshot or Open. A live
// Append of every household meets the heap tail page's free-space end
// at 0xffff, and its next page pointing back at the heap's first: a
// household whose last page is full puts its tuple on a fresh page
// chained to the tail, and the tail must be refused before anything is
// written to it (a link from it would cut the heap's chain).
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
	firstTID := func(t *testing.T, tb *table) {
		setEntry(t, tb.index, key{ID: uint64(id)}, TID{Page: at31})
	}
	tailEnd := func(t *testing.T, tb *table) {
		editPage(t, tb.heap.bp, tb.heap.last, func(page []byte) { putU16(page, 4, 0xffff) })
	}
	tailNext := func(t *testing.T, tb *table) {
		editPage(t, tb.heap.bp, tb.heap.last, func(page []byte) { heapPageSetNext(page, tb.heap.first) })
	}
	// Which reader meets the planted value first.
	const extraction, snapshot, open, live = "extraction", "Snapshot", "Open", "Append"
	for _, tc := range []struct {
		name   string
		layout Layout
		plant  func(*testing.T, *table)
		reader string
	}{
		{"row hour 0xff000002", LayoutRows, putHour(0xff000002), extraction},
		{"row hour seq+1", LayoutRows, putHour(3), extraction},
		{"chunk start 2^31", LayoutArrays, putChunk(0, 8, at31), extraction},
		{"chunk count 2^31", LayoutArrays, putChunk(0, 12, at31), extraction},
		{"last chunk start 2^31", LayoutArrays, putChunk(1, 8, at31), snapshot},
		{"last chunk count 2^31", LayoutArrays, putChunk(1, 12, at31), snapshot},
		{"last row seq 2^31", LayoutRows, func(t *testing.T, tb *table) {
			if err := tb.index.insert(key{ID: uint64(id), Seq: at31}, tidOf(t, tb, key{ID: uint64(id)})); err != nil {
				t.Fatal(err)
			}
		}, snapshot},
		{"internal child 2^31", LayoutRows, func(t *testing.T, tb *table) {
			if tb.index.height < 2 {
				t.Fatalf("the tree is a lone leaf")
			}
			fr, err := tb.index.bp.fetch(tb.index.root)
			if err != nil {
				t.Fatal(err)
			}
			internalSetChild(fr.data[:], 0, at31)
			tb.index.bp.unpin(fr, true)
		}, open},
		{"row TID page 2^31", LayoutRows, firstTID, extraction},
		{"chunk TID page 2^31", LayoutArrays, firstTID, extraction},
		{"row heap tail free-space end 0xffff", LayoutRows, tailEnd, live},
		{"chunk heap tail free-space end 0xffff", LayoutArrays, tailEnd, live},
		{"row heap tail links onward", LayoutRows, tailNext, live},
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
			refused := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.HasPrefix(err.Error(), "rowstore:") {
					t.Errorf("%s: err = %v, want a rowstore error", what, err)
				}
			}
			// Reopen: the planted bytes are read from the file, and
			// nothing of the load is cached.
			err := e.Open()
			if tc.reader == open {
				refused(open, err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.reader == snapshot {
				_, _, err := e.Snapshot()
				refused(snapshot, err)
				return
			}
			if tc.reader == live {
				var ids []timeseries.ID
				for _, s := range ds.Series {
					ids = append(ids, s.ID)
				}
				err := e.Append(hourBatch(ids, e.table.seriesLen))
				refused(live, err)
				return
			}
			_, err = e.readSeriesShared(id, basePrefix, nil)
			refused(extraction, err)
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

// editPage hands fn the bytes of page p, to change in place.
func editPage(t *testing.T, bp *bufferPool, p PageID, fn func(page []byte)) {
	t.Helper()
	fr, err := bp.fetch(p)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.unpin(fr, true)
	fn(fr.data[:])
}

// TestHostileHeapChain damages the heap under a household's clustered
// run, which the heap walk reads without its index entries: a page of
// the run emptied and linked to itself, the run's first page linked to
// a leaf, to page 0x80000000 or past the end of the file, and a tuple
// inside the run whose owner or hour (0xff000002) is not the walk's.
// The walk checks every tuple it decodes and every page it steps to,
// so each must either be refused with a rowstore error — where the
// tuples are gone or wrong — or read bit-identical through the index,
// where only the chain is: by the cursors, the temperature column and
// the pipeline, at either int width. Nothing may panic, hang or read
// as zeros.
func TestHostileHeapChain(t *testing.T) {
	src, ds := writeExact(t, 3, 30)
	victim := ds.Series[0]
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		// The victim's tuples fill several pages; mid is a tuple on a page
		// after its first: an hour in the row layout, a chunk in the
		// array layout.
		mid := key{ID: uint64(victim.ID), Seq: 300}
		if layout == LayoutArrays {
			mid.Seq = 1
		}
		setNext := func(next func(*table) PageID) func(*testing.T, *table) {
			return func(t *testing.T, tb *table) {
				first := tidOf(t, tb, key{ID: uint64(victim.ID)}).Page
				editPage(t, tb.heap.bp, first, func(p []byte) { heapPageSetNext(p, next(tb)) })
			}
		}
		for _, tc := range []struct {
			name    string
			plant   func(*testing.T, *table)
			refused bool
		}{
			{"empty page linked to itself", func(t *testing.T, tb *table) {
				p := tidOf(t, tb, mid).Page
				editPage(t, tb.heap.bp, p, func(page []byte) {
					putU16(page, 0, 0)
					heapPageSetNext(page, p)
				})
			}, true},
			{"next page a leaf", setNext(func(tb *table) PageID {
				page, _, err := tb.index.seekLeaf(key{ID: uint64(victim.ID)})
				if err != nil {
					t.Fatal(err)
				}
				return page
			}), false},
			{"next page 0x80000000", setNext(func(*table) PageID { return 1 << 31 }), false},
			{"next page past the end", setNext(func(tb *table) PageID { return tb.heap.bp.pf.nPages + 3 }), false},
			{"owner flipped", func(t *testing.T, tb *table) {
				editTuple(t, tb, mid, func(tu []byte) { putU64(tu, 0, getU64(tu, 0)^1<<40) })
			}, true},
			{"hour 0xff000002", func(t *testing.T, tb *table) {
				editTuple(t, tb, mid, func(tu []byte) { putU32(tu, 8, 0xff000002) })
			}, true},
		} {
			t.Run(fmt.Sprintf("%v/%s", layout, tc.name), func(t *testing.T) {
				e := New(t.TempDir(), WithLayout(layout))
				defer e.Close()
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
				if tidOf(t, e.table, mid).Page == tidOf(t, e.table, key{ID: uint64(victim.ID)}).Page {
					t.Fatalf("household %d's run fits one page", victim.ID)
				}
				tc.plant(t, e.table)
				if err := e.Open(); err != nil {
					t.Fatal(err)
				}
				spec := core.Spec{Task: core.TaskHistogram}
				cur, err := cursortest.Open(e)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				if !tc.refused {
					sameSeries(t, drainAll(t, cur), ds.Series)
					sameSeries(t, drainPartitions(t, e, 2), ds.Series)
					temp, err := e.Temperature()
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, "temperature", temp.Values, ds.Temperature.Values)
					got, err := e.Run(spec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.RunReference(ds, spec)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, got, want)
					return
				}
				refused := func(what string, err error) {
					t.Helper()
					var pe *core.PanicError
					if errors.As(err, &pe) {
						t.Fatalf("%s: recovered panic: %v", what, err)
					}
					if err == nil || !strings.HasPrefix(err.Error(), "rowstore:") {
						t.Errorf("%s: err = %v, want a rowstore error", what, err)
					}
				}
				_, err = cur.Next() // the victim is the first household
				refused("cursor", err)
				_, err = e.Temperature()
				refused("Temperature", err)
				_, err = e.Run(spec)
				refused("histogram", err)
			})
		}
	}
}
