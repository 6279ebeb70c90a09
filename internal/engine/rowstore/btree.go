package rowstore

import (
	"fmt"
	"math"
)

// B+tree keyed by a composite (household id, sequence) pair, mapping to
// heap TIDs. The row layout stores one entry per reading (seq = hour);
// the array layout stores one entry per consumer (seq = 0). Keys must be
// non-negative; the table layer enforces this.
//
// Node page layout:
//
//	offset 0: uint16 flags (bit 0: leaf)
//	offset 2: uint16 key count n
//	offset 4: uint32 next-leaf page id (leaves only; InvalidPage at tail)
//	offset 8: payload
//	  leaf:     n x (key 16B, value 8B)
//	  internal: n x (key 16B) followed by (n+1) x (child 4B), with the
//	            child array at a fixed offset so splits need not slide it.
const (
	btreeHeaderSize = 8
	btreeKeySize    = 16
	btreeLeafVal    = 8
	btreeLeafEntry  = btreeKeySize + btreeLeafVal

	// leafCap: (8192-8)/24 = 341
	leafCap = (PageSize - btreeHeaderSize) / btreeLeafEntry
	// internalCap chosen so keys + (cap+1) children fit.
	internalCap = (PageSize - btreeHeaderSize - 4) / (btreeKeySize + 4)

	flagLeaf = uint16(1)
)

// internal node offsets: keys first, then the child array at a fixed
// position after space for internalCap keys.
const internalChildOff = btreeHeaderSize + internalCap*btreeKeySize

// key is the composite B+tree key.
type key struct {
	ID  uint64
	Seq uint64
}

func (k key) less(o key) bool {
	if k.ID != o.ID {
		return k.ID < o.ID
	}
	return k.Seq < o.Seq
}

func putKey(b []byte, off int, k key) {
	putU64(b, off, k.ID)
	putU64(b, off+8, k.Seq)
}

func getKey(b []byte, off int) key {
	return key{ID: getU64(b, off), Seq: getU64(b, off+8)}
}

func putTID(b []byte, off int, t TID) {
	putU32(b, off, uint32(t.Page))
	putU16(b, off+4, t.Slot)
	putU16(b, off+6, 0)
}

func getTID(b []byte, off int) TID {
	return TID{Page: PageID(getU32(b, off)), Slot: getU16(b, off+4)}
}

// btree is the index structure. All access goes through the buffer pool.
type btree struct {
	bp   *bufferPool
	root PageID
	// height is 1 for a lone leaf root.
	height int
	// tail caches the rightmost leaf, where a key above every stored one
	// goes; nil keeps no cache, which only tests ask for.
	tail *rightmostLeaf
}

// rightmostLeaf is the rightmost leaf as the tree's last insert that
// reached it left it: its page and its last key. A page of InvalidPage
// is a cold cache, as after openBTree, until an insert descends to that
// leaf.
type rightmostLeaf struct {
	page PageID
	last key
}

// newBTree creates an empty tree with a leaf root.
func newBTree(bp *bufferPool) (*btree, error) {
	fr, err := bp.allocate()
	if err != nil {
		return nil, err
	}
	putU16(fr.data[:], 0, flagLeaf)
	putU16(fr.data[:], 2, 0)
	putU32(fr.data[:], 4, uint32(InvalidPage))
	bp.unpin(fr, true)
	return &btree{bp: bp, root: fr.id, height: 1, tail: &rightmostLeaf{page: InvalidPage}}, nil
}

// openBTree re-attaches to an existing tree, with a cold cache.
func openBTree(bp *bufferPool, root PageID, height int) *btree {
	return &btree{bp: bp, root: root, height: height, tail: &rightmostLeaf{page: InvalidPage}}
}

func nodeIsLeaf(data []byte) bool  { return getU16(data, 0)&flagLeaf != 0 }
func nodeCount(data []byte) uint16 { return getU16(data, 2) }

// nodeEntries is the entry count of the step-th node a read visits,
// checked against corruption: the count comes from the file and
// addresses every key and child read after it, so it must fit in the
// page; and a descent or a leaf-chain walk visits each of the file's
// pages at most once, so a longer one is a cycle.
func nodeEntries(data []byte, step int, pages PageID) (int, error) {
	if step > int(pages) {
		return 0, fmt.Errorf("rowstore: corrupt index: walk longer than the file's %d pages", pages)
	}
	n, limit := int(nodeCount(data)), internalCap
	if nodeIsLeaf(data) {
		limit = leafCap
	}
	if n > limit {
		return 0, fmt.Errorf("rowstore: corrupt index node: %d entries, at most %d fit", n, limit)
	}
	return n, nil
}

// leafEntries is nodeEntries for a page reached along the leaf chain.
func leafEntries(data []byte, step int, pages PageID) (int, error) {
	if !nodeIsLeaf(data) {
		return 0, fmt.Errorf("rowstore: corrupt index: leaf chain reaches an internal node")
	}
	return nodeEntries(data, step, pages)
}

func leafKey(data []byte, i int) key {
	return getKey(data, btreeHeaderSize+i*btreeLeafEntry)
}

func leafVal(data []byte, i int) TID {
	return getTID(data, btreeHeaderSize+i*btreeLeafEntry+btreeKeySize)
}

func leafSet(data []byte, i int, k key, v TID) {
	off := btreeHeaderSize + i*btreeLeafEntry
	putKey(data, off, k)
	putTID(data, off+btreeKeySize, v)
}

func leafNext(data []byte) PageID       { return PageID(getU32(data, 4)) }
func leafSetNext(data []byte, p PageID) { putU32(data, 4, uint32(p)) }

func internalKey(data []byte, i int) key {
	return getKey(data, btreeHeaderSize+i*btreeKeySize)
}

func internalSetKey(data []byte, i int, k key) {
	putKey(data, btreeHeaderSize+i*btreeKeySize, k)
}

func internalChild(data []byte, i int) PageID {
	return PageID(getU32(data, internalChildOff+i*4))
}

func internalSetChild(data []byte, i int, p PageID) {
	putU32(data, internalChildOff+i*4, uint32(p))
}

// lowerBound returns the first index i in [0, n) with keyAt(i) >= k,
// or n if none.
func lowerBound(n int, k key, keyAt func(int) key) int {
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if keyAt(mid).less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitResult reports a child split to the parent.
type splitResult struct {
	newPage PageID
	// sepKey is the smallest key in newPage.
	sepKey key
	split  bool
}

// insert adds a key/value pair. Duplicate exact keys are rejected. It is
// the one insert path, for the bulk load's index build, live Append and
// log replay alike. A key above the cached rightmost leaf's last key
// goes straight onto that leaf when the page confirms it (appendTail),
// as PostgreSQL's nbtinsert.c does for ascending keys with its cached
// rightmost leaf; every other key, and one whose leaf is full, descends
// from the root. Both place the key where the descent would, so the
// tree's pages are the same whichever path a key takes.
func (t *btree) insert(k key, v TID) error {
	if t.tail != nil && t.tail.page != InvalidPage && t.tail.last.less(k) {
		if done, err := t.appendTail(k, v); done || err != nil {
			return err
		}
	}
	return t.descend(k, v)
}

// appendTail puts k after the last entry of the cached rightmost leaf
// and reports whether it did. It does only when the page itself
// confirms that a descent would place k there without a split: it is a
// leaf with no right sibling, it has room, and its own last key is
// below k. Otherwise it leaves the page untouched.
func (t *btree) appendTail(k key, v TID) (bool, error) {
	fr, err := t.bp.fetch(t.tail.page)
	if err != nil {
		return false, err
	}
	data := fr.data[:]
	n := int(nodeCount(data))
	if !nodeIsLeaf(data) || leafNext(data) != InvalidPage || n == 0 || n >= leafCap || !leafKey(data, n-1).less(k) {
		t.bp.unpin(fr, false)
		return false, nil
	}
	leafSet(data, n, k, v)
	putU16(data, 2, uint16(n+1))
	t.tail.last = k
	t.bp.unpin(fr, true)
	return true, nil
}

// descend inserts k by a descent from the root, splitting the nodes on
// its path that are full, and growing a new root when the old one
// splits.
func (t *btree) descend(k key, v TID) error {
	res, err := t.insertInto(t.root, k, v, true)
	if err != nil {
		return err
	}
	if !res.split {
		return nil
	}
	// Grow a new root.
	fr, err := t.bp.allocate()
	if err != nil {
		return err
	}
	putU16(fr.data[:], 0, 0) // internal
	putU16(fr.data[:], 2, 1)
	internalSetKey(fr.data[:], 0, res.sepKey)
	internalSetChild(fr.data[:], 0, t.root)
	internalSetChild(fr.data[:], 1, res.newPage)
	t.root = fr.id
	t.height++
	t.bp.unpin(fr, true)
	return nil
}

// insertInto adds k under page. rightmost says that page is the last
// node of its level, the one a key larger than every key reaches.
func (t *btree) insertInto(page PageID, k key, v TID, rightmost bool) (splitResult, error) {
	fr, err := t.bp.fetch(page)
	if err != nil {
		return splitResult{}, err
	}
	data := fr.data[:]
	if nodeIsLeaf(data) {
		res, err := t.leafInsert(fr, k, v, rightmost)
		t.bp.unpin(fr, true)
		return res, err
	}
	n := int(nodeCount(data))
	idx := lowerBound(n, k, func(i int) key { return internalKey(data, i) })
	// Descend right of equal separators.
	if idx < n && !k.less(internalKey(data, idx)) {
		idx++
	}
	child := internalChild(data, idx)
	// Unpin during recursion; re-fetch to apply a split. Inserts run under
	// the exclusive table latch, so nothing else touches the page between.
	t.bp.unpin(fr, false)
	res, err := t.insertInto(child, k, v, rightmost && idx == n)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	fr, err = t.bp.fetch(page)
	if err != nil {
		return splitResult{}, err
	}
	out, err := t.internalInsert(fr, res.sepKey, res.newPage, rightmost)
	t.bp.unpin(fr, true)
	return out, err
}

// splitPoint returns how many of a full node's n entries stay in the
// left node of a split. When the rightmost node of its level is split by
// a key that sorts after all of its own, it keeps 90 % of them, as
// PostgreSQL's _bt_findsplitloc does for a rightmost page: keys inserted
// in ascending order, a bulk load, then leave every node but the last
// of each level 90 % full rather than half. Any other split halves the
// node.
func splitPoint(n int, rightmost, last bool) int {
	if rightmost && last {
		return (9*n + 9) / 10
	}
	return n / 2
}

func (t *btree) leafInsert(fr *frame, k key, v TID, rightmost bool) (splitResult, error) {
	data := fr.data[:]
	n := int(nodeCount(data))
	idx := lowerBound(n, k, func(i int) key { return leafKey(data, i) })
	if idx < n && leafKey(data, idx) == k {
		return splitResult{}, fmt.Errorf("rowstore: duplicate key (%d, %d)", k.ID, k.Seq)
	}
	if n < leafCap {
		// Shift and place.
		base := btreeHeaderSize
		copy(data[base+(idx+1)*btreeLeafEntry:base+(n+1)*btreeLeafEntry],
			data[base+idx*btreeLeafEntry:base+n*btreeLeafEntry])
		leafSet(data, idx, k, v)
		putU16(data, 2, uint16(n+1))
		if rightmost {
			t.noteTail(fr.id, data)
		}
		return splitResult{}, nil
	}
	// Split: move the entries past the split point to a new leaf.
	nfr, err := t.bp.allocate()
	if err != nil {
		return splitResult{}, err
	}
	ndata := nfr.data[:]
	putU16(ndata, 0, flagLeaf)
	mid := splitPoint(n, rightmost, idx == n)
	moved := n - mid
	copy(ndata[btreeHeaderSize:btreeHeaderSize+moved*btreeLeafEntry],
		data[btreeHeaderSize+mid*btreeLeafEntry:btreeHeaderSize+n*btreeLeafEntry])
	putU16(ndata, 2, uint16(moved))
	putU16(data, 2, uint16(mid))
	leafSetNext(ndata, leafNext(data))
	leafSetNext(data, nfr.id)

	// Insert into whichever half owns the key.
	if idx <= mid {
		if _, err := t.leafInsert(fr, k, v, false); err != nil {
			t.bp.unpin(nfr, true)
			return splitResult{}, err
		}
	} else {
		res, err := t.leafInsert(nfr, k, v, rightmost)
		if err != nil || res.split {
			t.bp.unpin(nfr, true)
			if err == nil {
				err = fmt.Errorf("rowstore: split leaf overflowed")
			}
			return splitResult{}, err
		}
	}
	sep := leafKey(ndata, 0)
	id := nfr.id
	if rightmost {
		t.noteTail(id, ndata)
	}
	t.bp.unpin(nfr, true)
	return splitResult{newPage: id, sepKey: sep, split: true}, nil
}

// noteTail caches page, a non-empty leaf a descent reached along the
// rightmost path, as the rightmost leaf.
func (t *btree) noteTail(page PageID, data []byte) {
	if t.tail != nil {
		t.tail.page, t.tail.last = page, leafKey(data, int(nodeCount(data))-1)
	}
}

func (t *btree) internalInsert(fr *frame, sep key, right PageID, rightmost bool) (splitResult, error) {
	data := fr.data[:]
	n := int(nodeCount(data))
	idx := lowerBound(n, sep, func(i int) key { return internalKey(data, i) })
	if n < internalCap {
		copy(data[btreeHeaderSize+(idx+1)*btreeKeySize:btreeHeaderSize+(n+1)*btreeKeySize],
			data[btreeHeaderSize+idx*btreeKeySize:btreeHeaderSize+n*btreeKeySize])
		copy(data[internalChildOff+(idx+2)*4:internalChildOff+(n+2)*4],
			data[internalChildOff+(idx+1)*4:internalChildOff+(n+1)*4])
		internalSetKey(data, idx, sep)
		internalSetChild(data, idx+1, right)
		putU16(data, 2, uint16(n+1))
		return splitResult{}, nil
	}
	// Split the internal node: middle key moves up.
	nfr, err := t.bp.allocate()
	if err != nil {
		return splitResult{}, err
	}
	ndata := nfr.data[:]
	putU16(ndata, 0, 0)
	mid := splitPoint(n, rightmost, idx == n)
	upKey := internalKey(data, mid)
	movedKeys := n - mid - 1
	copy(ndata[btreeHeaderSize:btreeHeaderSize+movedKeys*btreeKeySize],
		data[btreeHeaderSize+(mid+1)*btreeKeySize:btreeHeaderSize+n*btreeKeySize])
	copy(ndata[internalChildOff:internalChildOff+(movedKeys+1)*4],
		data[internalChildOff+(mid+1)*4:internalChildOff+(n+1)*4])
	putU16(ndata, 2, uint16(movedKeys))
	putU16(data, 2, uint16(mid))

	if sep.less(upKey) {
		if _, err := t.internalInsert(fr, sep, right, false); err != nil {
			t.bp.unpin(nfr, true)
			return splitResult{}, err
		}
	} else {
		if _, err := t.internalInsert(nfr, sep, right, rightmost); err != nil {
			t.bp.unpin(nfr, true)
			return splitResult{}, err
		}
	}
	id := nfr.id
	t.bp.unpin(nfr, true)
	return splitResult{newPage: id, sepKey: upKey, split: true}, nil
}

// seekLeaf descends to the leaf that may contain k and returns its page
// and the index of its first entry >= k (the leaf's count if it has none).
func (t *btree) seekLeaf(k key) (PageID, int, error) {
	page := t.root
	for depth := 1; ; depth++ {
		fr, err := t.bp.fetch(page)
		if err != nil {
			return InvalidPage, 0, err
		}
		data := fr.data[:]
		n, err := nodeEntries(data, depth, t.bp.pf.nPages)
		if err != nil {
			t.bp.unpin(fr, false)
			return InvalidPage, 0, err
		}
		if nodeIsLeaf(data) {
			idx := lowerBound(n, k, func(i int) key { return leafKey(data, i) })
			t.bp.unpin(fr, false)
			return page, idx, nil
		}
		idx := lowerBound(n, k, func(i int) key { return internalKey(data, i) })
		if idx < n && !k.less(internalKey(data, idx)) {
			idx++
		}
		next := internalChild(data, idx)
		t.bp.unpin(fr, false)
		page = next
	}
}

// scanRange calls fn for every entry with lo <= key < hi, in key order.
func (t *btree) scanRange(lo, hi key, fn func(k key, v TID) error) error {
	page, start, err := t.seekLeaf(lo)
	if err != nil {
		return err
	}
	for step := 1; page != InvalidPage; step++ {
		fr, err := t.bp.fetch(page)
		if err != nil {
			return err
		}
		data := fr.data[:]
		n, err := leafEntries(data, step, t.bp.pf.nPages)
		if err != nil {
			t.bp.unpin(fr, false)
			return err
		}
		for i := start; i < n; i++ {
			k := leafKey(data, i)
			if !k.less(hi) {
				t.bp.unpin(fr, false)
				return nil
			}
			if err := fn(k, leafVal(data, i)); err != nil {
				t.bp.unpin(fr, false)
				return err
			}
		}
		next := leafNext(data)
		t.bp.unpin(fr, false)
		page, start = next, 0
	}
	return nil
}

// first returns the first entry whose key is at least k; found is false
// when every key is smaller.
func (t *btree) first(k key) (got key, tid TID, found bool, err error) {
	err = t.scanRange(k, key{ID: math.MaxUint64, Seq: math.MaxUint64}, func(e key, v TID) error {
		got, tid, found = e, v, true
		return errStopScan
	})
	if err == errStopScan {
		err = nil
	}
	return got, tid, found, err
}

// last returns the greatest entry whose key is below hi; found is false
// when no key is. It descends once, with seekLeaf's checks, and keeps
// the nearest subtree left of its path: leaves link only forward, so
// when every key of the leaf it reaches is at least hi, the entry is the
// last one of that subtree's rightmost leaf. That leaf must lie as deep
// as the one the descent reached, be non-empty and end below hi; a
// file that breaks any of these is a corrupt index.
func (t *btree) last(hi key) (got key, tid TID, found bool, err error) {
	page, depth := t.root, 1
	var left PageID
	leftDepth := 0 // no subtree left of the path yet
	for ; ; depth++ {
		fr, err := t.bp.fetch(page)
		if err != nil {
			return key{}, TID{}, false, err
		}
		data := fr.data[:]
		n, err := nodeEntries(data, depth, t.bp.pf.nPages)
		if err != nil {
			t.bp.unpin(fr, false)
			return key{}, TID{}, false, err
		}
		if nodeIsLeaf(data) {
			idx := lowerBound(n, hi, func(i int) key { return leafKey(data, i) })
			if idx > 0 {
				got, tid = leafKey(data, idx-1), leafVal(data, idx-1)
			}
			t.bp.unpin(fr, false)
			if idx > 0 {
				return got, tid, true, nil
			}
			break
		}
		idx := lowerBound(n, hi, func(i int) key { return internalKey(data, i) })
		if idx > 0 {
			left, leftDepth = internalChild(data, idx-1), depth+1
		}
		next := internalChild(data, idx)
		t.bp.unpin(fr, false)
		page = next
	}
	if leftDepth == 0 {
		return key{}, TID{}, false, nil
	}
	// The left step: the rightmost leaf of the subtree at left.
	for d := leftDepth; ; d++ {
		fr, err := t.bp.fetch(left)
		if err != nil {
			return key{}, TID{}, false, err
		}
		data := fr.data[:]
		n, err := nodeEntries(data, d, t.bp.pf.nPages)
		if err == nil && nodeIsLeaf(data) != (d == depth) {
			err = fmt.Errorf("rowstore: corrupt index: the subtree left of (%d, %d) is not %d levels deep", hi.ID, hi.Seq, depth-leftDepth+1)
		}
		if err == nil && d == depth && n == 0 {
			err = fmt.Errorf("rowstore: corrupt index: empty leaf left of (%d, %d)", hi.ID, hi.Seq)
		}
		if err != nil {
			t.bp.unpin(fr, false)
			return key{}, TID{}, false, err
		}
		if d < depth {
			left = internalChild(data, n)
			t.bp.unpin(fr, false)
			continue
		}
		got, tid = leafKey(data, n-1), leafVal(data, n-1)
		t.bp.unpin(fr, false)
		if !got.less(hi) {
			return key{}, TID{}, false, fmt.Errorf("rowstore: corrupt index: (%d, %d) left of (%d, %d)", got.ID, got.Seq, hi.ID, hi.Seq)
		}
		return got, tid, true, nil
	}
}

// get returns the TID for an exact key.
func (t *btree) get(k key) (TID, bool, error) {
	got, tid, found, err := t.first(k)
	return tid, found && got == k, err
}
