package rowstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/sched"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// FuzzRowstoreFile overwrites bytes of a table file, in either layout,
// with arbitrary input at an arbitrary offset, then reopens the store,
// whose cursors read it through their rings, runs the histogram task
// under FailFast and Quarantine, drains a snapshot, appends one more
// hour of every household and drains a second snapshot. The table holds
// three households of twelve days, each a run of several heap pages in
// the row layout, and a day of live hours, a batch per hour, written
// back at Close, which go on the page of each household's last tuple
// while it has room: a snapshot walks each household's loaded run and
// breaks into the index for its live hours. The append takes each
// household's last-tuple TID from the index and checks it on the page
// it names before placing the new tuple there, or goes to the heap
// tail, whose header it checks before chaining a page to it. Each step
// must return data or an error: nothing may panic, whether on the
// caller's goroutine or inside a worker that recovers the panic into an
// error.
func FuzzRowstoreFile(f *testing.F) {
	src, ds := writeSource(f, 3, 12)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	baseN := len(ds.Temperature.Values)
	images := map[bool][]byte{}
	for _, arrays := range []bool{false, true} {
		layout := LayoutRows
		if arrays {
			layout = LayoutArrays
		}
		dir := f.TempDir()
		e := New(dir, WithLayout(layout))
		if _, err := e.Load(src); err != nil {
			f.Fatal(err)
		}
		for h := baseN; h < baseN+24; h++ {
			if err := e.Append(hourBatch(ids, h)); err != nil {
				f.Fatal(err)
			}
		}
		// The field the hour seed below overwrites: the row layout's
		// hour-2 tuple of the first household, or the array layout's
		// second chunk of it, which holds its first live hour.
		k := key{ID: uint64(ids[0]), Seq: 2}
		if arrays {
			k.Seq = 1
		}
		tid, ok, err := e.table.index.get(k)
		if err != nil || !ok {
			f.Fatalf("index entry (%d, %d): %v %v", k.ID, k.Seq, ok, err)
		}
		fr, err := e.bp.fetch(tid.Page)
		if err != nil {
			f.Fatal(err)
		}
		field := uint32(tid.Page)*PageSize + uint32(getU16(fr.data[:], heapHeaderSize+int(tid.Slot)*slotSize)) + 8
		e.bp.unpin(fr, false)
		root := uint32(e.table.index.root)
		var plants []indexPlant
		if !arrays {
			plants = leftStepPlants(f, e.table.index)
		}
		if last, ok, err := e.table.index.get(key{ID: uint64(ids[0]), Seq: uint64(baseN - 1)}); !arrays && (err != nil || !ok || last.Page == tid.Page) {
			f.Fatalf("household %d's loaded tuples do not span heap pages: %v %v", ids[0], ok, err)
		}
		if err := e.Close(); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(filepath.Join(dir, "table.db"))
		if err != nil {
			f.Fatal(err)
		}
		images[arrays] = img
		pages := uint32(len(img) / PageSize)

		f.Add(arrays, uint32(0), []byte{})
		// The meta page's tree height, series length and household count
		// at their maximum, and the household count at 2^31, which is
		// negative as a 32-bit int.
		f.Add(arrays, uint32(32), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(arrays, uint32(36), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(arrays, uint32(40), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(arrays, uint32(40), []byte{0, 0, 0, 0x80})
		// The top byte of that tuple's hour or that chunk's start:
		// 0xff000002 is negative as a 32-bit int and past the series as a
		// 64-bit one. In the row layout the offset is 16311.
		f.Add(arrays, field+3, []byte{0xff})
		// The row layout's index damaged where the first touch's descent
		// steps left (leftStepPlants), each damage one write of the
		// bytes it spans.
		for _, p := range plants {
			off, data := patchSpan(img, p.patches)
			f.Add(arrays, off, data)
		}
		// On every page: the heap slot count and the node count at their
		// maximum; the node's next leaf and the heap page's next page
		// pointing back at the page itself; an empty leaf whose next leaf
		// is itself; a node's first key at the largest household ID; an
		// internal node whose first child is itself; an empty leaf
		// followed by an internal node with more entries than a leaf
		// holds; and the heap page's next page at the tree's root, at
		// 0x80000000 and past the end of the file, which a walk along a
		// household's run follows.
		for p := uint32(1); p < pages; p++ {
			off, self := p*PageSize, byte(p)
			selfChild := make([]byte, internalChildOff+4)
			selfChild[internalChildOff] = self
			toInternal := make([]byte, PageSize+4)
			copy(toInternal, []byte{1, 0, 0, 0, self + 1, 0, 0, 0})
			binary.LittleEndian.PutUint16(toInternal[PageSize+2:], internalCap)
			f.Add(arrays, off, selfChild)
			f.Add(arrays, off, toInternal)
			f.Add(arrays, off+8, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
			f.Add(arrays, off, []byte{0xff, 0xff})
			f.Add(arrays, off+2, []byte{0xff, 0xff})
			f.Add(arrays, off+4, []byte{self, 0, 0, 0})
			f.Add(arrays, off+6, []byte{self, 0, 0, 0})
			f.Add(arrays, off, []byte{1, 0, 0, 0, self, 0, 0, 0})
			f.Add(arrays, off+6, binary.LittleEndian.AppendUint32(nil, root))
			f.Add(arrays, off+6, []byte{0, 0, 0, 0x80})
			f.Add(arrays, off+6, binary.LittleEndian.AppendUint32(nil, pages+1))
		}
	}

	// A fuzz worker calls the target one input at a time, so the inputs
	// can share one directory.
	dir := f.TempDir()
	path := filepath.Join(dir, "table.db")
	f.Fuzz(func(t *testing.T, arrays bool, off uint32, data []byte) {
		img := append([]byte(nil), images[arrays]...)
		copy(img[int(off)%len(img):], data)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(dir)
		if err := e.Open(); err != nil {
			return
		}
		defer e.Close()
		for _, policy := range []core.FailPolicy{core.FailFast, core.Quarantine} {
			res, err := e.Run(core.Spec{Task: core.TaskHistogram, FailPolicy: policy})
			noPanic(t, err)
			if res != nil {
				for _, fail := range res.Failed {
					noPanic(t, fail.Err)
				}
			}
		}
		drain := func() {
			cur, _, err := e.Snapshot()
			if err != nil {
				return
			}
			defer cur.Close()
			for {
				if _, err := cur.Next(); err != nil {
					return
				}
			}
		}
		drain()
		if err := e.Append(hourBatch(ids, baseN+24)); err != nil {
			return
		}
		drain()
	})
}

// noPanic fails the test when err carries a recovered panic.
func noPanic(t *testing.T, err error) {
	t.Helper()
	var pe *core.PanicError
	var se *sched.PanicError
	if errors.As(err, &pe) || errors.As(err, &se) {
		t.Fatalf("recovered panic: %v", err)
	}
}
