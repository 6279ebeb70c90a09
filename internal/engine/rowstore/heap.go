package rowstore

import (
	"fmt"
)

// Slotted heap page layout:
//
//	offset 0:  uint16 slot count
//	offset 2:  uint16 free-space start (grows up)
//	offset 4:  uint16 free-space end   (grows down; tuples at the top)
//	offset 6:  uint32 next page id (heap chain), InvalidPage at tail
//	offset 10: slot array, 4 bytes per slot: uint16 offset, uint16 length
//
// Tuples are stored back-to-front from the end of the page.
const (
	heapHeaderSize = 10
	slotSize       = 4
)

// TID addresses one tuple: page plus slot.
type TID struct {
	Page PageID
	Slot uint16
}

func heapInitPage(data []byte) {
	putU16(data, 0, 0)
	putU16(data, 2, heapHeaderSize)
	putU16(data, 4, PageSize)
	putU32(data, 6, uint32(InvalidPage))
}

// heapPageFree returns the bytes a new tuple may take on the page, net
// of the slot entry it needs, and refuses a page whose header does not
// describe one: the free space must start right after the slot array,
// at or below where it ends, and end inside the page. Every insert
// checks it first, so a damaged header is a corrupt page and never an
// offset outside the page.
func heapPageFree(data []byte) (int, error) {
	n, start, end := int(getU16(data, 0)), int(getU16(data, 2)), int(getU16(data, 4))
	if start != heapHeaderSize+n*slotSize || start > end || end > PageSize {
		return 0, fmt.Errorf("rowstore: corrupt heap page: %d slots, free space [%d, %d)", n, start, end)
	}
	return max(end-start-slotSize, 0), nil
}

// heapPageInsert places the tuple in the page and returns its slot.
// The caller must have checked the page with heapPageFree and found
// room for the tuple.
func heapPageInsert(data []byte, tuple []byte) uint16 {
	n := getU16(data, 0)
	top := getU16(data, 4) - uint16(len(tuple))
	copy(data[top:], tuple)
	slotOff := heapHeaderSize + int(n)*slotSize
	putU16(data, slotOff, top)
	putU16(data, slotOff+2, uint16(len(tuple)))
	putU16(data, 0, n+1)
	putU16(data, 2, uint16(slotOff+slotSize))
	putU16(data, 4, top)
	return n
}

// heapPageTuple returns the bytes of one slot (a view into data).
func heapPageTuple(data []byte, slot uint16) ([]byte, error) {
	n := getU16(data, 0)
	if slot >= n {
		return nil, fmt.Errorf("rowstore: slot %d of %d", slot, n)
	}
	slotOff := heapHeaderSize + int(slot)*slotSize
	if slotOff+slotSize > PageSize {
		return nil, fmt.Errorf("rowstore: corrupt slot count %d", n)
	}
	off := getU16(data, slotOff)
	length := getU16(data, slotOff+2)
	if int(off)+int(length) > PageSize {
		return nil, fmt.Errorf("rowstore: corrupt slot %d", slot)
	}
	return data[off : int(off)+int(length)], nil
}

func heapPageSlotCount(data []byte) uint16 { return getU16(data, 0) }
func heapPageNext(data []byte) PageID      { return PageID(getU32(data, 6)) }
func heapPageSetNext(data []byte, id PageID) {
	putU32(data, 6, uint32(id))
}

// heapFile is a chain of slotted pages behind a buffer pool.
type heapFile struct {
	bp          *bufferPool
	first, last PageID
	// tuples counts inserted tuples.
	tuples int64
}

// newHeapFile creates an empty heap with one allocated page.
func newHeapFile(bp *bufferPool) (*heapFile, error) {
	fr, err := bp.allocate()
	if err != nil {
		return nil, err
	}
	heapInitPage(fr.data[:])
	bp.unpin(fr, true)
	return &heapFile{bp: bp, first: fr.id, last: fr.id}, nil
}

// insert appends one tuple to the tail page, or to a fresh page chained
// after it when the tail has no room, and returns its TID.
func (h *heapFile) insert(tuple []byte) (TID, error) {
	return h.place(h.last, nil, tuple)
}

// place puts one tuple on page near when that page has room and keep,
// if given, accepts it, and otherwise on a fresh page chained at the
// tail, and returns its TID. A near page that lies outside the file or
// fails heapPageFree's checks is passed over like a full one; the tail
// page a fresh page is chained to must pass them and end the chain, or
// the link would cut the pages after it off the heap.
func (h *heapFile) place(near PageID, keep func(page []byte) bool, tuple []byte) (TID, error) {
	fr, tid, err := h.placePinned(near, keep, tuple)
	if err != nil {
		return TID{}, err
	}
	h.bp.unpin(fr, true)
	return tid, nil
}

// placePinned is place, leaving the page the tuple went to pinned for
// the caller, who must unpin it dirty.
func (h *heapFile) placePinned(near PageID, keep func(page []byte) bool, tuple []byte) (*frame, TID, error) {
	if len(tuple) > PageSize-heapHeaderSize-slotSize {
		return nil, TID{}, fmt.Errorf("rowstore: tuple of %d bytes exceeds page capacity", len(tuple))
	}
	if near < h.bp.pf.nPages {
		fr, err := h.bp.fetch(near)
		if err != nil {
			return nil, TID{}, err
		}
		if free, err := heapPageFree(fr.data[:]); err == nil && free >= len(tuple) && (keep == nil || keep(fr.data[:])) {
			return fr, h.put(fr, tuple), nil
		}
		h.bp.unpin(fr, false)
	}
	// Chain a fresh page.
	fr, err := h.bp.fetch(h.last)
	if err != nil {
		return nil, TID{}, err
	}
	_, err = heapPageFree(fr.data[:])
	if next := heapPageNext(fr.data[:]); err == nil && next != InvalidPage {
		err = fmt.Errorf("rowstore: corrupt heap page: the tail links to page %d", next)
	}
	if err != nil {
		h.bp.unpin(fr, false)
		return nil, TID{}, fmt.Errorf("%w (heap tail page %d)", err, h.last)
	}
	nfr, err := h.bp.allocate()
	if err != nil {
		h.bp.unpin(fr, false)
		return nil, TID{}, err
	}
	heapInitPage(nfr.data[:])
	heapPageSetNext(fr.data[:], nfr.id)
	h.bp.unpin(fr, true)
	h.last = nfr.id
	return nfr, h.put(nfr, tuple), nil
}

// put inserts the tuple on the pinned page fr, which has room for it.
func (h *heapFile) put(fr *frame, tuple []byte) TID {
	slot := heapPageInsert(fr.data[:], tuple)
	h.tuples++
	return TID{Page: fr.id, Slot: slot}
}

// heapLoader is COPY's way into the heap: it appends each tuple at the
// tail, as insert does, but keeps the tail page pinned while the page
// has room, so a page of tuples costs one pool lookup, not one per
// tuple. Only the bulk load uses it, under the exclusive table latch;
// close unpins the tail.
type heapLoader struct {
	h    *heapFile
	tail *frame // the pinned tail page, nil before the first tuple
}

func (l *heapLoader) insert(tuple []byte) error {
	if l.tail != nil {
		if free, err := heapPageFree(l.tail.data[:]); err == nil && free >= len(tuple) {
			l.h.put(l.tail, tuple)
			return nil
		}
		l.close()
	}
	fr, _, err := l.h.placePinned(l.h.last, nil, tuple)
	if err != nil {
		return err
	}
	l.tail = fr
	return nil
}

func (l *heapLoader) close() {
	if l.tail != nil {
		l.h.bp.unpin(l.tail, true)
		l.tail = nil
	}
}

// get copies the tuple at tid into a fresh slice.
func (h *heapFile) get(tid TID) ([]byte, error) {
	fr, err := h.bp.fetch(tid.Page)
	if err != nil {
		return nil, err
	}
	t, err := heapPageTuple(fr.data[:], tid.Slot)
	if err != nil {
		h.bp.unpin(fr, false)
		return nil, err
	}
	out := make([]byte, len(t))
	copy(out, t)
	h.bp.unpin(fr, false)
	return out, nil
}

// scan calls fn for every tuple in heap order. The tuple slice is only
// valid during the callback.
func (h *heapFile) scan(fn func(tid TID, tuple []byte) error) error {
	id := h.first
	for id != InvalidPage {
		fr, err := h.bp.fetch(id)
		if err != nil {
			return err
		}
		n := heapPageSlotCount(fr.data[:])
		for s := uint16(0); s < n; s++ {
			t, err := heapPageTuple(fr.data[:], s)
			if err != nil {
				h.bp.unpin(fr, false)
				return err
			}
			if err := fn(TID{Page: id, Slot: s}, t); err != nil {
				h.bp.unpin(fr, false)
				return err
			}
		}
		next := heapPageNext(fr.data[:])
		h.bp.unpin(fr, false)
		id = next
	}
	return nil
}
