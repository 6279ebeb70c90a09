package rowstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// oracleLoadTable is the bulk load tuple by tuple, as it was before the
// heap loader and the rightmost-leaf append: every tuple goes in through
// heapFile.insert, which fetches the tail page for it, and every key
// through a cache-less btree, which descends from the root for it. The
// table file it writes is the one loadTable must write, byte for byte.
func oracleLoadTable(t *testing.T, bp *bufferPool, layout Layout, ds *timeseries.Dataset) *table {
	t.Helper()
	metaFr, err := bp.allocate()
	if err != nil {
		t.Fatal(err)
	}
	bp.unpin(metaFr, true)
	heap, err := newHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	tb := &table{layout: layout, heap: heap}
	insert := func(tuple []byte) error {
		_, err := heap.insert(tuple)
		return err
	}
	for _, s := range ds.Series {
		tb.seriesLen = len(s.Readings)
		switch layout {
		case LayoutRows:
			for h, c := range s.Readings {
				if err := insert(encodeRowTuple(nil, s.ID, h, ds.Temperature.Values[h], c)); err != nil {
					t.Fatal(err)
				}
			}
		case LayoutArrays:
			if err := eachChunk(s.ID, 0, s.Readings, ds.Temperature.Values, insert); err != nil {
				t.Fatal(err)
			}
		}
		tb.consumers++
	}
	idx, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	idx.tail = nil
	tb.index = idx
	var owner, rank uint64
	err = heap.scan(func(tid TID, tu []byte) error {
		k := key{ID: getU64(tu, 0), Seq: uint64(getU32(tu, 8))}
		if layout == LayoutArrays {
			if k.ID != owner {
				owner, rank = k.ID, 0
			} else {
				rank++
			}
			k.Seq = rank
		}
		return idx.insert(k, tid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(bp, tb.meta()); err != nil {
		t.Fatal(err)
	}
	return tb
}

// syntheticDataset is n households of the given IDs with hours readings
// each; lengths need not be whole days, which text sources require.
func syntheticDataset(ids []timeseries.ID, hours int) *timeseries.Dataset {
	ds := &timeseries.Dataset{Temperature: &timeseries.Temperature{Values: make([]float64, hours)}}
	for h := range ds.Temperature.Values {
		ds.Temperature.Values[h] = float64(h%97) / 4
	}
	for _, id := range ids {
		s := &timeseries.Series{ID: id, Readings: make([]float64, hours)}
		for h := range s.Readings {
			s.Readings[h] = float64(id)*0.5 + float64(h)/8
		}
		ds.Series = append(ds.Series, s)
	}
	return ds
}

func seqIDs(n int) []timeseries.ID {
	ids := make([]timeseries.ID, n)
	for i := range ids {
		ids[i] = timeseries.ID(i + 1)
	}
	return ids
}

// tableFile loads ds into a fresh table file at a pool of the given
// size, through loadTable or the oracle, and returns the file's bytes
// and the table.
func tableFile(t *testing.T, layout Layout, pool int, ds *timeseries.Dataset, oracle bool) ([]byte, *table) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.db")
	pf, err := openPagedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.close()
	bp := newBufferPool(pf, pool)
	var tb *table
	if oracle {
		tb = oracleLoadTable(t, bp, layout, ds)
	} else if tb, err = loadTable(bp, layout, ds); err != nil {
		t.Fatal(err)
	}
	if pins := bp.pinnedFrames(); pins != 0 {
		t.Fatalf("%d frames still pinned after the load", pins)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img, tb
}

func sameImage(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, tuple-by-tuple %d", what, len(got)/PageSize, len(want)/PageSize)
	}
	for p := 0; p < len(got); p += PageSize {
		if !bytes.Equal(got[p:p+PageSize], want[p:p+PageSize]) {
			t.Fatalf("%s: page %d differs from the tuple-by-tuple build", what, p/PageSize)
		}
	}
}

// TestLoadTableMatchesTupleByTuple holds loadTable's file to the oracle's
// in both layouts, at the default pool and at one of 16 pages (which
// writes dirty pages back as it evicts them). The row-layout run lengths
// straddle a leaf's fill point and its capacity (a leaf splits at 90 %
// of 341 entries, keeping 307); 16 households of a year are enough
// leaves to split the internal root, so the tree grows a third level;
// and households out of ID order send every household's first key down
// from the root while the rest append.
func TestLoadTableMatchesTupleByTuple(t *testing.T) {
	type load struct {
		name  string
		ids   []timeseries.ID
		hours int
	}
	var loads []load
	for _, hours := range []int{0, 1, 306, 307, 341, 342} {
		loads = append(loads, load{fmt.Sprintf("3x%d", hours), seqIDs(3), hours})
	}
	loads = append(loads,
		load{"40x481", seqIDs(40), 481},
		load{"out-of-order", []timeseries.ID{7, 3, 11, 5, 1, 9}, 700},
		load{"16-years", seqIDs(16), 8760},
	)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, ld := range loads {
			for _, pool := range []int{DefaultPoolPages, 16} {
				if layout == LayoutArrays && ld.name == "16-years" {
					ld = load{"40-years", seqIDs(40), 8760} // 760 chunks: three leaves
				}
				t.Run(fmt.Sprintf("%v/%s/pool%d", layout, ld.name, pool), func(t *testing.T) {
					ds := syntheticDataset(ld.ids, ld.hours)
					got, tb := tableFile(t, layout, pool, ds, false)
					want, _ := tableFile(t, layout, pool, ds, true)
					sameImage(t, "table file", got, want)
					if ld.name == "16-years" && layout == LayoutRows && tb.index.height != 3 {
						t.Fatalf("tree height %d, want 3: the internal root never split", tb.index.height)
					}
				})
			}
		}
	}
}

// TestLoadThenAppendMatchesTupleByTuple holds Engine.Load's table.db to
// the oracle's for a text source, then reopens both files and appends
// the same hours, to every household and to a new one, through a tree
// whose cache a reopen left cold and through a cache-less one. The
// files must stay identical, with and without the write-ahead log.
func TestLoadThenAppendMatchesTupleByTuple(t *testing.T) {
	src, _ := writeSource(t, 6, 3)
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]timeseries.ID, 0, len(ds.Series)+1)
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	fresh := ids[len(ids)-1] + 1000
	base := len(ds.Temperature.Values)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, logged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/wal=%v", layout, logged), func(t *testing.T) {
				opts := []Option{WithLayout(layout), WithPoolPages(16)}
				if logged {
					opts = append(opts, WithWAL(wal.SyncBatch))
				}
				dir, odir := t.TempDir(), t.TempDir()
				e := New(dir, opts...)
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				pf, err := openPagedFile(filepath.Join(odir, "table.db"))
				if err != nil {
					t.Fatal(err)
				}
				oracleLoadTable(t, newBufferPool(pf, 16), layout, ds)
				if err := pf.close(); err != nil {
					t.Fatal(err)
				}
				sameImage(t, "loaded", readTable(t, dir), readTable(t, odir))

				e, o := New(dir, opts...), New(odir, opts...)
				for _, x := range []*Engine{e, o} {
					if err := x.Open(); err != nil {
						t.Fatal(err)
					}
				}
				if e.table.index.tail.page != InvalidPage {
					t.Fatalf("reopened tree caches page %d", e.table.index.tail.page)
				}
				o.table.index.tail = nil
				for h := 0; h < 30; h++ {
					batch := append(hourBatch(ids, base+h), core.Reading{ID: fresh, Hour: h, Consumption: liveVal(fresh, h), Temperature: liveTemp(base + h)})
					for _, x := range []*Engine{e, o} {
						if err := x.Append(batch); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, x := range []*Engine{e, o} {
					if err := x.Close(); err != nil {
						t.Fatal(err)
					}
				}
				sameImage(t, "appended", readTable(t, dir), readTable(t, odir))
			})
		}
	}
}

func readTable(t *testing.T, dir string) []byte {
	t.Helper()
	img, err := os.ReadFile(filepath.Join(dir, "table.db"))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRightmostAppendChecksThePage points the cache at pages a key must
// not be appended to — a leaf with a right sibling, an internal node, a
// full rightmost leaf — and checks that each insert descends instead and
// lands where the descent puts it. It also pins what the cache saves:
// an ascending key costs one pool lookup, and a key below the cached
// one the descent's, with no lookup of the cached page.
func TestRightmostAppendChecksThePage(t *testing.T) {
	bp := testPool(t, 4096)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	n := 2 * leafCap * internalCap // height 3
	for i := 0; i < n; i += 2 {
		if err := bt.insert(key{ID: uint64(i)}, TID{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if bt.height != 3 {
		t.Fatalf("height %d, want 3", bt.height)
	}
	lookups := func(k key) int64 {
		t.Helper()
		h0, m0 := bp.stats()
		if err := bt.insert(k, TID{Page: PageID(k.ID)}); err != nil {
			t.Fatal(err)
		}
		h1, m1 := bp.stats()
		return h1 + m1 - h0 - m0
	}
	next := uint64(n)
	if got := lookups(key{ID: next}); got != 1 {
		t.Errorf("an ascending key took %d pool lookups, want 1", got)
	}
	if got := lookups(key{ID: 1}); got != int64(bt.height) {
		t.Errorf("a key below the cached one took %d pool lookups, want the descent's %d", got, bt.height)
	}

	firsts, _ := leafBounds(t, bt)
	leftLeaf, _, err := bt.seekLeaf(firsts[0])
	if err != nil {
		t.Fatal(err)
	}
	tail := *bt.tail
	for _, stale := range []PageID{leftLeaf, bt.root} {
		next++
		before := pageBytes(t, bp, stale)
		bt.tail.page = stale
		if got := lookups(key{ID: next}); got != 1+int64(bt.height) {
			t.Errorf("cache at page %d: %d pool lookups, want the check's and the descent's %d", stale, got, 1+bt.height)
		}
		if !bytes.Equal(pageBytes(t, bp, stale), before) {
			t.Fatalf("the insert changed page %d, which it must only have checked", stale)
		}
		if bt.tail.page != tail.page || bt.tail.last != (key{ID: next}) {
			t.Fatalf("after the descent the cache holds page %d key %v, want page %d key %d", bt.tail.page, bt.tail.last, tail.page, next)
		}
	}
	// Fill the rightmost leaf; the next key splits it by a descent and
	// the cache moves to the new leaf.
	for {
		fr, err := bp.fetch(bt.tail.page)
		if err != nil {
			t.Fatal(err)
		}
		full := nodeCount(fr.data[:]) == leafCap
		bp.unpin(fr, false)
		if full {
			break
		}
		next++
		lookups(key{ID: next})
	}
	full := bt.tail.page
	next++
	if got := lookups(key{ID: next}); got <= int64(bt.height) {
		t.Errorf("the split took %d pool lookups; it must check the full leaf and descend", got)
	}
	if bt.tail.page == full || bt.tail.last != (key{ID: next}) {
		t.Fatalf("after the split the cache holds page %d key %v", bt.tail.page, bt.tail.last)
	}
	checkFilled(t, bt)
	keys, _ := allEntries(t, bt)
	if want := n/2 + int(next-uint64(n)) + 2; len(keys) != want {
		t.Fatalf("%d entries, want %d", len(keys), want)
	}
	for i := 1; i < len(keys); i++ {
		if !keys[i-1].less(keys[i]) {
			t.Fatalf("entries %d and %d out of order: %v %v", i-1, i, keys[i-1], keys[i])
		}
	}
}

func pageBytes(t *testing.T, bp *bufferPool, p PageID) []byte {
	t.Helper()
	fr, err := bp.fetch(p)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.unpin(fr, false)
	return append([]byte(nil), fr.data[:]...)
}

// TestFlushWritesRunsOfDirtyPages holds flush to writing each run of
// consecutive dirty pages with one call of up to runPages pages, in
// page order, and to leaving the file as page-by-page writes would.
func TestFlushWritesRunsOfDirtyPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.db")
	pf, err := openPagedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.close()
	bp := newBufferPool(pf, 128)
	const pages = 60
	want := make([]byte, pages*PageSize)
	stamp := func(p PageID, round byte) {
		fr, err := bp.fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fr.data {
			fr.data[i] = byte(p) ^ round ^ byte(i*7)
		}
		copy(want[int(p)*PageSize:], fr.data[:])
		bp.unpin(fr, true)
	}
	for p := 0; p < pages; p++ {
		fr, err := bp.allocate()
		if err != nil {
			t.Fatal(err)
		}
		bp.unpin(fr, true)
		stamp(fr.id, 1)
	}
	for round, tc := range []struct {
		dirty  []PageID
		writes int64
	}{
		{nil, 4}, // all 60 fresh pages: runs of 16, 16, 16 and 12
		{[]PageID{3, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 35, 59}, 5},
		{[]PageID{58, 0, 1, 40, 2}, 3},
	} {
		for _, p := range tc.dirty {
			stamp(p, byte(round+1))
		}
		before := bp.pwrites
		if err := bp.flush(); err != nil {
			t.Fatal(err)
		}
		if got := bp.pwrites - before; got != tc.writes {
			t.Errorf("round %d: %d writes, want %d", round, got, tc.writes)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sameImage(t, fmt.Sprintf("round %d", round), img, want)
		for _, fr := range bp.frames {
			if fr.dirty {
				t.Fatalf("round %d: page %d still dirty", round, fr.id)
			}
		}
	}
}
