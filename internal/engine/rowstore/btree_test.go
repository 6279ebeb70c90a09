package rowstore

import (
	"math/rand"
	"path/filepath"
	"testing"
)

func testPool(t *testing.T, pages int) *bufferPool {
	t.Helper()
	pf, err := openPagedFile(filepath.Join(t.TempDir(), "t.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.close() })
	return newBufferPool(pf, pages)
}

func TestBTreeInsertAndGet(t *testing.T) {
	bp := testPool(t, 64)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := key{ID: uint64(i % 10), Seq: uint64(i / 10)}
		if err := bt.insert(k, TID{Page: PageID(i), Slot: uint16(i)}); err != nil {
			t.Fatalf("insert %v: %v", k, err)
		}
	}
	for i := 0; i < 1000; i++ {
		k := key{ID: uint64(i % 10), Seq: uint64(i / 10)}
		v, ok, err := bt.get(k)
		if err != nil || !ok {
			t.Fatalf("get %v: ok=%v err=%v", k, ok, err)
		}
		if v.Page != PageID(i) || v.Slot != uint16(i) {
			t.Fatalf("get %v = %+v", k, v)
		}
	}
	if _, ok, _ := bt.get(key{ID: 99, Seq: 0}); ok {
		t.Error("found missing key")
	}
}

func TestBTreeDuplicateRejected(t *testing.T) {
	bp := testPool(t, 16)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	k := key{ID: 1, Seq: 1}
	if err := bt.insert(k, TID{}); err != nil {
		t.Fatal(err)
	}
	if err := bt.insert(k, TID{}); err == nil {
		t.Error("duplicate insert: want error")
	}
}

func TestBTreeSplitsWithManyKeys(t *testing.T) {
	bp := testPool(t, 256)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	// Enough keys to force multiple leaf splits and at least one internal
	// split (leafCap = 341).
	const n = 50000
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, i := range perm {
		if err := bt.insert(key{ID: uint64(i), Seq: 0}, TID{Page: PageID(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if bt.height < 2 {
		t.Errorf("height = %d, expected splits", bt.height)
	}
	// Full scan must return all keys in sorted order.
	var prev key
	count := 0
	err = bt.scanRange(key{}, key{ID: ^uint64(0), Seq: ^uint64(0)}, func(k key, v TID) error {
		if count > 0 && !prev.less(k) {
			t.Fatalf("out of order: %v then %v", prev, k)
		}
		if v.Page != PageID(k.ID) {
			t.Fatalf("key %v maps to %v", k, v)
		}
		prev = k
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan saw %d keys, want %d", count, n)
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bp := testPool(t, 64)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		for seq := uint64(0); seq < 100; seq++ {
			if err := bt.insert(key{ID: id, Seq: seq}, TID{Page: PageID(id), Slot: uint16(seq)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Scan only household 3.
	var got []uint64
	err = bt.scanRange(key{ID: 3}, key{ID: 4}, func(k key, v TID) error {
		if k.ID != 3 {
			t.Fatalf("leaked key %v", k)
		}
		got = append(got, k.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d entries", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("seq[%d] = %d", i, s)
		}
	}
	// Empty range.
	count := 0
	bt.scanRange(key{ID: 9}, key{ID: 10}, func(key, TID) error { count++; return nil })
	if count != 0 {
		t.Errorf("empty range returned %d", count)
	}
}

func TestBTreeScanEarlyStop(t *testing.T) {
	bp := testPool(t, 16)
	bt, _ := newBTree(bp)
	for i := 0; i < 10; i++ {
		bt.insert(key{ID: uint64(i)}, TID{})
	}
	count := 0
	err := bt.scanRange(key{}, key{ID: ^uint64(0)}, func(key, TID) error {
		count++
		if count == 3 {
			return errStopScan
		}
		return nil
	})
	if err != errStopScan || count != 3 {
		t.Errorf("early stop: count=%d err=%v", count, err)
	}
}

func TestBTreeSurvivesPoolPressure(t *testing.T) {
	// A tiny pool forces constant eviction and re-reads from disk.
	bp := testPool(t, 4)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := bt.insert(key{ID: uint64(i)}, TID{Page: PageID(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	count := 0
	err = bt.scanRange(key{}, key{ID: ^uint64(0)}, func(k key, v TID) error {
		if v.Page != PageID(k.ID) {
			t.Fatalf("key %v -> %v", k, v)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d", count)
	}
	if _, misses := bp.stats(); misses == 0 {
		t.Error("expected pool misses under pressure")
	}
}

func TestOpenBTreeReattach(t *testing.T) {
	bp := testPool(t, 32)
	bt, _ := newBTree(bp)
	for i := 0; i < 2000; i++ {
		bt.insert(key{ID: uint64(i)}, TID{Page: PageID(i)})
	}
	re := openBTree(bp, bt.root, bt.height)
	v, ok, err := re.get(key{ID: 1234})
	if err != nil || !ok || v.Page != 1234 {
		t.Errorf("reattached get = %+v ok=%v err=%v", v, ok, err)
	}
}

// TestLeafChainRefusesInternalNode: a corrupt next-leaf pointer naming
// an internal node, whose count may exceed what a leaf holds, ends the
// scan with an error instead of reading leaf entries past the page.
func TestLeafChainRefusesInternalNode(t *testing.T) {
	bp := testPool(t, 8)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := bp.allocate()
	if err != nil {
		t.Fatal(err)
	}
	putU16(inner.data[:], 2, internalCap)
	bp.unpin(inner, true)
	root, err := bp.fetch(bt.root)
	if err != nil {
		t.Fatal(err)
	}
	leafSetNext(root.data[:], inner.id)
	bp.unpin(root, true)
	err = bt.scanRange(key{}, key{ID: 1}, func(key, TID) error { return nil })
	if err == nil {
		t.Fatal("leaf chain through an internal node: want error")
	}
}

// levelFills returns the entry count of every node of the tree, level by
// level from the root, each level left to right.
func levelFills(t *testing.T, bt *btree) [][]int {
	t.Helper()
	var levels [][]int
	for level := []PageID{bt.root}; len(level) > 0; {
		var fills []int
		var next []PageID
		for _, page := range level {
			fr, err := bt.bp.fetch(page)
			if err != nil {
				t.Fatal(err)
			}
			data := fr.data[:]
			n := int(nodeCount(data))
			fills = append(fills, n)
			if !nodeIsLeaf(data) {
				for i := 0; i <= n; i++ {
					next = append(next, internalChild(data, i))
				}
			}
			bt.bp.unpin(fr, false)
		}
		levels = append(levels, fills)
		level = next
	}
	return levels
}

// checkFilled requires every node of every level but the last one of it
// to hold at least 90 % of its capacity.
func checkFilled(t *testing.T, bt *btree) {
	t.Helper()
	levels := levelFills(t, bt)
	for depth, fills := range levels {
		capacity := internalCap
		if depth == len(levels)-1 {
			capacity = leafCap
		}
		for i, n := range fills[:len(fills)-1] {
			if 10*n < 9*capacity {
				t.Errorf("level %d node %d of %d holds %d of %d entries, under 90 %%", depth, i, len(fills), n, capacity)
			}
		}
	}
}

// TestBTreeAscendingInsertsFillNodes inserts keys in ascending order,
// as a bulk load does, until the tree has internal nodes below its root:
// every node but the rightmost of its level must be at least 90 % full.
func TestBTreeAscendingInsertsFillNodes(t *testing.T) {
	bp := testPool(t, 256)
	bt, err := newBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 160000 // over 409 leaves of 307: two internal nodes under the root
	for i := range n {
		if err := bt.insert(key{ID: uint64(i / 100), Seq: uint64(i % 100)}, TID{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if bt.height < 3 {
		t.Fatalf("height %d, want internal nodes below the root", bt.height)
	}
	checkFilled(t, bt)
	count := 0
	if err := bt.scanRange(key{}, key{ID: ^uint64(0)}, func(k key, v TID) error {
		if v.Page != PageID(count) {
			t.Fatalf("entry %d maps to %v", count, v)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan saw %d keys, want %d", count, n)
	}
}

// TestBulkLoadFillsLeaves loads a table in both layouts: every leaf but
// the last must be at least 90 % full.
func TestBulkLoadFillsLeaves(t *testing.T) {
	src, _ := writeSource(t, 20, 365)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			levels := levelFills(t, e.table.index)
			if leaves := levels[len(levels)-1]; len(leaves) < 2 {
				t.Fatalf("%d leaves: the load does not split one", len(leaves))
			}
			checkFilled(t, e.table.index)
		})
	}
}
