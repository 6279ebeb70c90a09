package rowstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
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

// allEntries returns every entry of the tree in key order, through
// scanRange: the oracle btree.last is held to.
func allEntries(t *testing.T, bt *btree) ([]key, []TID) {
	t.Helper()
	var keys []key
	var tids []TID
	err := bt.scanRange(key{}, key{ID: ^uint64(0), Seq: ^uint64(0)}, func(k key, v TID) error {
		keys, tids = append(keys, k), append(tids, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// scanRange's bound is exclusive, and so is get's, which scans to
	// it: the largest key is read from its leaf.
	top := key{ID: ^uint64(0), Seq: ^uint64(0)}
	page, i, err := bt.seekLeaf(top)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := bt.bp.fetch(page)
	if err != nil {
		t.Fatal(err)
	}
	if i < int(nodeCount(fr.data[:])) && leafKey(fr.data[:], i) == top {
		keys, tids = append(keys, top), append(tids, leafVal(fr.data[:], i))
	}
	bt.bp.unpin(fr, false)
	return keys, tids
}

// checkLast holds bt.last(hi) to the greatest of keys below hi.
func checkLast(t *testing.T, bt *btree, keys []key, tids []TID, hi key) {
	t.Helper()
	i := sort.Search(len(keys), func(i int) bool { return !keys[i].less(hi) })
	got, tid, found, err := bt.last(hi)
	if err != nil {
		t.Fatalf("last(%v): %v", hi, err)
	}
	if i == 0 {
		if found {
			t.Fatalf("last(%v) = %v, want none", hi, got)
		}
		return
	}
	if !found || got != keys[i-1] || tid != tids[i-1] {
		t.Fatalf("last(%v) = %v %v %v, want %v %v", hi, got, tid, found, keys[i-1], tids[i-1])
	}
}

// leafBounds returns the first and last key of every leaf, along the
// chain from the leftmost.
func leafBounds(t *testing.T, bt *btree) (firsts, lasts []key) {
	t.Helper()
	page, _, err := bt.seekLeaf(key{})
	if err != nil {
		t.Fatal(err)
	}
	for page != InvalidPage {
		fr, err := bt.bp.fetch(page)
		if err != nil {
			t.Fatal(err)
		}
		data := fr.data[:]
		if n := int(nodeCount(data)); n > 0 {
			firsts, lasts = append(firsts, leafKey(data, 0)), append(lasts, leafKey(data, n-1))
		}
		page = leafNext(data)
		bt.bp.unpin(fr, false)
	}
	return firsts, lasts
}

// lowerSeparators rewrites every separator of the subtree at page to
// the successor of the last key left of it, the least a B+tree allows.
// The tree stays valid, but where keys are sparse (the tests store even
// sequences), a key between the new separator and the right subtree's
// first key, that first key included, now descends to a leaf that
// starts at or above it, which is where btree.last steps left. It
// returns the subtree's last key.
func lowerSeparators(t *testing.T, bt *btree, page PageID) key {
	t.Helper()
	fr, err := bt.bp.fetch(page)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.bp.unpin(fr, true)
	data := fr.data[:]
	n := int(nodeCount(data))
	if nodeIsLeaf(data) {
		return leafKey(data, n-1)
	}
	var last key
	for i := 0; i <= n; i++ {
		last = lowerSeparators(t, bt, internalChild(data, i))
		if i < n {
			succ := key{ID: last.ID, Seq: last.Seq + 1}
			if last.Seq == ^uint64(0) {
				succ = key{ID: last.ID + 1}
			}
			internalSetKey(data, i, succ)
		}
	}
	return last
}

// TestBTreeLastMatchesScanRange inserts keys in random order until
// leaves and internal nodes have split, at a pool far smaller than the
// tree and at one that holds it, and holds btree.last to the entries
// scanRange returns: for hi below every key, above every key, equal to
// stored keys, between two households (the bound a household's last
// entry is sought with), at the edges of the first and the last leaf and
// of every other one, and at ID MaxUint64. It does so again after the
// separators are lowered as far as a B+tree allows, where every leaf's
// first key makes the descent step into the subtree on its left.
func TestBTreeLastMatchesScanRange(t *testing.T) {
	for _, pages := range []int{4, 512} {
		t.Run(fmt.Sprintf("pool %d", pages), func(t *testing.T) {
			bt, err := newBTree(testPool(t, pages))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, found, err := bt.last(key{ID: 5}); err != nil || found {
				t.Fatalf("last on an empty tree: found %v, err %v", found, err)
			}
			rng := rand.New(rand.NewSource(int64(pages)))
			const households, perHousehold = 900, 160
			var ks []key
			for id := uint64(1); id <= households; id++ {
				for seq := uint64(0); seq < perHousehold; seq++ {
					ks = append(ks, key{ID: 3 * id, Seq: 2 * seq})
				}
			}
			top := ^uint64(0)
			ks = append(ks, key{ID: top}, key{ID: top, Seq: 7}, key{ID: top, Seq: top}, key{ID: top - 1, Seq: top})
			rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
			for i, k := range ks {
				if err := bt.insert(k, TID{Page: PageID(i), Slot: uint16(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if bt.height < 3 {
				t.Fatalf("height %d: no internal node split", bt.height)
			}
			for _, lowered := range []bool{false, true} {
				if lowered {
					lowerSeparators(t, bt, bt.root)
				}
				keys, tids := allEntries(t, bt)
				if len(keys) != len(ks) {
					t.Fatalf("scanRange saw %d keys, want %d", len(keys), len(ks))
				}
				his := []key{{}, {ID: 1}, {ID: 3}, {ID: 3, Seq: 1}, {ID: top}, {ID: top, Seq: 1}, {ID: top, Seq: 7},
					{ID: top, Seq: 8}, {ID: top, Seq: top}, {ID: top - 1, Seq: top}, {ID: top - 1}}
				for id := uint64(0); id <= 3*households+1; id++ {
					his = append(his, key{ID: id}, key{ID: id, Seq: perHousehold - 1}, key{ID: id, Seq: top})
				}
				for range 2000 {
					his = append(his, keys[rng.Intn(len(keys))])
				}
				firsts, lasts := leafBounds(t, bt)
				for i := range firsts {
					f, l := firsts[i], lasts[i]
					his = append(his, f, l, key{ID: f.ID, Seq: f.Seq + 1}, key{ID: l.ID, Seq: l.Seq + 1})
					if f.Seq > 0 {
						his = append(his, key{ID: f.ID, Seq: f.Seq - 1})
					}
				}
				for _, hi := range his {
					checkLast(t, bt, keys, tids, hi)
				}
			}
		})
	}
}

// TestBTreeLastChecksTheLeftStep damages the subtree a left step enters,
// in a three-level tree whose separators are lowered (lowerSeparators),
// at the first key under the root's second child, whose descent steps
// into the root's first child. A leaf where an internal node belongs, an
// internal node where a leaf belongs and an empty rightmost leaf must
// each be refused; a shallow leaf would otherwise answer with a key that
// is not the greatest below hi.
func TestBTreeLastChecksTheLeftStep(t *testing.T) {
	edit := func(t *testing.T, bt *btree, p PageID, fn func(data []byte)) {
		fr, err := bt.bp.fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		fn(fr.data[:])
		bt.bp.unpin(fr, true)
	}
	// edge follows the first or the last child of each node from page
	// for levels steps.
	edge := func(t *testing.T, bt *btree, page PageID, levels int, last bool) PageID {
		for range levels {
			edit(t, bt, page, func(data []byte) {
				i := 0
				if last {
					i = int(nodeCount(data))
				}
				page = internalChild(data, i)
			})
		}
		return page
	}
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, bt *btree, left PageID)
	}{
		{"a leaf above the leaves", func(t *testing.T, bt *btree, left PageID) {
			leaf := edge(t, bt, left, 1, false)
			edit(t, bt, bt.root, func(data []byte) { internalSetChild(data, 0, leaf) })
		}},
		{"an internal node at the leaves' depth", func(t *testing.T, bt *btree, left PageID) {
			edit(t, bt, left, func(data []byte) { internalSetChild(data, int(nodeCount(data)), left) })
		}},
		{"an empty rightmost leaf", func(t *testing.T, bt *btree, left PageID) {
			edit(t, bt, edge(t, bt, left, 1, true), func(data []byte) { putU16(data, 2, 0) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bt, err := newBTree(testPool(t, 64))
			if err != nil {
				t.Fatal(err)
			}
			for i := range 160000 {
				if err := bt.insert(key{ID: uint64(i / 100), Seq: 2 * uint64(i%100)}, TID{Page: PageID(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if bt.height != 3 {
				t.Fatalf("height %d, want 3", bt.height)
			}
			lowerSeparators(t, bt, bt.root)
			var left, right PageID
			edit(t, bt, bt.root, func(data []byte) { left, right = internalChild(data, 0), internalChild(data, 1) })
			var hi key
			edit(t, bt, edge(t, bt, right, 1, false), func(data []byte) { hi = leafKey(data, 0) })
			keys, tids := allEntries(t, bt)
			checkLast(t, bt, keys, tids, hi)
			tc.plant(t, bt, left)
			if got, _, found, err := bt.last(hi); err == nil || found {
				t.Fatalf("last(%v) = %v, %v, %v; want a corrupt-index error", hi, got, found, err)
			}
		})
	}
}
