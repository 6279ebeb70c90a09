package rowstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/sched"
)

// FuzzRowstoreFile overwrites bytes of a loaded table file, in either
// layout, with arbitrary input at an arbitrary offset, then reopens the
// store, whose cursors read it through their rings, and runs the
// histogram task under FailFast and Quarantine. Each
// step must return data or an error: nothing may panic, whether on the
// caller's goroutine or inside a worker that recovers the panic into an
// error.
func FuzzRowstoreFile(f *testing.F) {
	src, _ := writeSource(f, 3, 4)
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
		if err := e.Close(); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(filepath.Join(dir, "table.db"))
		if err != nil {
			f.Fatal(err)
		}
		images[arrays] = img

		f.Add(arrays, uint32(0), []byte{})
		// The meta page's tree height, series length and household count
		// at their maximum, and the household count at 2^31, which is
		// negative as a 32-bit int.
		f.Add(arrays, uint32(32), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(arrays, uint32(36), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(arrays, uint32(40), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(arrays, uint32(40), []byte{0, 0, 0, 0x80})
		// In the row layout, the top byte of household 1's hour-2 tuple's
		// hour: 0xff000002 is negative as a 32-bit int and past the series
		// as a 64-bit one.
		f.Add(arrays, uint32(16311), []byte{0xff})
		// On every page: the heap slot count and the node count at their
		// maximum; the node's next leaf and the heap page's next page
		// pointing back at the page itself; an empty leaf whose next leaf
		// is itself; a node's first key at the largest household ID; an
		// internal node whose first child is itself; and an empty leaf
		// followed by an internal node with more entries than a leaf holds.
		for p := 1; p < len(img)/PageSize; p++ {
			off, self := uint32(p*PageSize), byte(p)
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
