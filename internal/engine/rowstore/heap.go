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

// heapPageFree returns the usable free bytes (accounting for the slot
// entry a new tuple would need).
func heapPageFree(data []byte) int {
	free := int(getU16(data, 4)) - int(getU16(data, 2))
	free -= slotSize
	if free < 0 {
		return 0
	}
	return free
}

// heapPageInsert places the tuple in the page and returns its slot.
// The caller must have checked heapPageFree.
func heapPageInsert(data []byte, tuple []byte) (uint16, error) {
	n := getU16(data, 0)
	top := getU16(data, 4)
	if int(top)-len(tuple) < int(getU16(data, 2))+slotSize {
		return 0, fmt.Errorf("rowstore: page overflow inserting %d bytes", len(tuple))
	}
	top -= uint16(len(tuple))
	copy(data[top:], tuple)
	slotOff := heapHeaderSize + int(n)*slotSize
	putU16(data, slotOff, top)
	putU16(data, slotOff+2, uint16(len(tuple)))
	putU16(data, 0, n+1)
	putU16(data, 2, uint16(slotOff+slotSize))
	putU16(data, 4, top)
	return n, nil
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

// openHeapFile re-attaches to an existing heap chain starting at first.
func openHeapFile(bp *bufferPool, first PageID, tuples int64) (*heapFile, error) {
	h := &heapFile{bp: bp, first: first, last: first, tuples: tuples}
	// Walk to the tail so inserts can continue.
	id := first
	for {
		fr, err := bp.fetch(id)
		if err != nil {
			return nil, err
		}
		next := heapPageNext(fr.data[:])
		bp.unpin(fr, false)
		if next == InvalidPage {
			h.last = id
			return h, nil
		}
		id = next
	}
}

// insert appends one tuple and returns its TID.
func (h *heapFile) insert(tuple []byte) (TID, error) {
	if len(tuple) > PageSize-heapHeaderSize-slotSize {
		return TID{}, fmt.Errorf("rowstore: tuple of %d bytes exceeds page capacity", len(tuple))
	}
	fr, err := h.bp.fetch(h.last)
	if err != nil {
		return TID{}, err
	}
	if heapPageFree(fr.data[:]) < len(tuple) {
		// Chain a fresh page.
		nfr, err := h.bp.allocate()
		if err != nil {
			h.bp.unpin(fr, false)
			return TID{}, err
		}
		heapInitPage(nfr.data[:])
		heapPageSetNext(fr.data[:], nfr.id)
		h.bp.unpin(fr, true)
		h.last = nfr.id
		fr = nfr
	}
	slot, err := heapPageInsert(fr.data[:], tuple)
	if err != nil {
		h.bp.unpin(fr, false)
		return TID{}, err
	}
	tid := TID{Page: fr.id, Slot: slot}
	h.bp.unpin(fr, true)
	h.tuples++
	return tid, nil
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
