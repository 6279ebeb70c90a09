package rowstore

import (
	"fmt"
)

// Meta page layout (always page 0 of the table file):
//
//	offset 0:  8-byte magic "SMROW1\n\0"
//	offset 8:  uint32 layout
//	offset 12: uint32 heap first page
//	offset 16: uint32 heap last page
//	offset 20: uint64 heap tuple count
//	offset 28: uint32 btree root page
//	offset 32: uint32 btree height
//	offset 36: uint32 series length (readings per consumer)
//	offset 40: uint32 consumer count
var rowMagic = [8]byte{'S', 'M', 'R', 'O', 'W', '1', '\n', 0}

// metaPage is the decoded meta page.
type metaPage struct {
	layout    Layout
	heapFirst PageID
	heapLast  PageID
	tuples    int64
	root      PageID
	height    int
	seriesLen int
	consumers int
}

// meta is the meta page that describes the table as it stands.
func (tb *table) meta() metaPage {
	return metaPage{
		layout:    tb.layout,
		heapFirst: tb.heap.first,
		heapLast:  tb.heap.last,
		tuples:    tb.heap.tuples,
		root:      tb.index.root,
		height:    tb.index.height,
		seriesLen: tb.seriesLen,
		consumers: tb.consumers,
	}
}

// writeMeta persists the meta page through the buffer pool.
func writeMeta(bp *bufferPool, m metaPage) error {
	fr, err := bp.fetch(0)
	if err != nil {
		return err
	}
	data := fr.data[:]
	copy(data, rowMagic[:])
	putU32(data, 8, uint32(m.layout))
	putU32(data, 12, uint32(m.heapFirst))
	putU32(data, 16, uint32(m.heapLast))
	putU64(data, 20, uint64(m.tuples))
	putU32(data, 28, uint32(m.root))
	putU32(data, 32, uint32(m.height))
	putU32(data, 36, uint32(m.seriesLen))
	putU32(data, 40, uint32(m.consumers))
	bp.unpin(fr, true)
	if bp.noSteal {
		// The table file changes only at a checkpoint, which writes this
		// page with every other dirty one.
		return nil
	}
	return bp.flush()
}

// readMeta loads and validates the meta page.
func readMeta(bp *bufferPool) (metaPage, error) {
	fr, err := bp.fetch(0)
	if err != nil {
		return metaPage{}, err
	}
	defer bp.unpin(fr, false)
	data := fr.data[:]
	for i, b := range rowMagic {
		if data[i] != b {
			return metaPage{}, fmt.Errorf("rowstore: bad meta magic (not a rowstore file)")
		}
	}
	m := metaPage{
		layout:    Layout(getU32(data, 8)),
		heapFirst: PageID(getU32(data, 12)),
		heapLast:  PageID(getU32(data, 16)),
		tuples:    int64(getU64(data, 20)),
		root:      PageID(getU32(data, 28)),
	}
	if m.layout != LayoutRows && m.layout != LayoutArrays {
		return metaPage{}, fmt.Errorf("rowstore: meta has unknown layout %d", m.layout)
	}
	// The counts become ints, which are 32 bits on some platforms, so
	// each is checked against the file while it is still a uint64. The
	// series length sizes every extraction's arrays, and each stored
	// reading takes at least 16 bytes of the file in either layout; each
	// household the load stored holds at least one such tuple; and each
	// level of the tree is at least one page.
	size := uint64(bp.pf.sizeBytes())
	height, seriesLen, consumers := uint64(getU32(data, 32)), uint64(getU32(data, 36)), uint64(getU32(data, 40))
	switch {
	case seriesLen*16 > size:
		return metaPage{}, fmt.Errorf("rowstore: meta series length %d exceeds what a %d-byte file holds", seriesLen, size)
	case consumers*16 > size:
		return metaPage{}, fmt.Errorf("rowstore: meta household count %d exceeds what a %d-byte file holds", consumers, size)
	case height*PageSize > size:
		return metaPage{}, fmt.Errorf("rowstore: meta tree height %d exceeds what a %d-byte file holds", height, size)
	}
	m.height, m.seriesLen, m.consumers = int(height), int(seriesLen), int(consumers)
	return m, nil
}
