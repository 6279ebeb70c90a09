package colstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// flatSegments writes one consumer whose every reading is 2.5 in two
// blocks of 64 rows, so each block's value payload is the run-length
// form [count 64][mode][8 value bytes][run 64], and returns the path
// with the file offset and length of block 0's value payload.
func flatSegments(t *testing.T) (path string, off int64, valLen int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), SegmentFileName)
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = 2.5
	}
	w, err := NewSegmentWriter(path, make([]float64, 128), WithBlockRows(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	h := st.hdr(0, 0)
	if h.valLen != 11 {
		t.Fatalf("flat block payload is %d bytes, want the 11 of the run-length form", h.valLen)
	}
	return path, st.payloadBase(0) + int64(h.payloadOff) + int64(h.tsLen), int(h.valLen)
}

func patchFile(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostilePayloadCountAllocatesNothing puts a payload that promises
// 2^27 values behind a valid block header. The header says 64, so the
// block is refused as a corrupt segment before the decoder sizes
// anything by the payload's word: no gigabyte, not even a kilobyte.
func TestHostilePayloadCountAllocatesNothing(t *testing.T) {
	path, off, _ := flatSegments(t)
	hostile := append(binary.AppendUvarint(nil, 1<<27), 2 /* run-length mode */, 0)
	patchFile(t, path, off, hostile)
	for _, inMemory := range []bool{true, false} {
		st, err := openStore(path, inMemory)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, st.n)
		scratch := make([]byte, 64)
		decode := func() {
			if _, err = st.readBlockVals(0, 0, scratch, row[:64]); err == nil {
				t.Fatal("hostile payload decoded")
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(100, decode)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("inMemory=%v: error %v, want the corrupt-segment error", inMemory, err)
		}
		// What is allowed to allocate is the error value.
		if grown := after.TotalAlloc - before.TotalAlloc; allocs > 8 || grown > 1<<16 {
			t.Fatalf("inMemory=%v: refusing the block took %.0f allocations and %d bytes over 101 runs", inMemory, allocs, grown)
		}
		st.close()
	}
}

// TestPayloadCountCannotOverrunItsBlock makes block 0's payload a valid
// encoding of one value more than its header holds. Decoding the row
// must fail without touching the first reading of block 1.
func TestPayloadCountCannotOverrunItsBlock(t *testing.T) {
	path, off, valLen := flatSegments(t)
	patchFile(t, path, off, []byte{65})                 // count varint
	patchFile(t, path, off+int64(valLen)-1, []byte{65}) // run length
	st, err := openStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	const sentinel = -77.0
	row := make([]float64, st.n)
	for i := range row {
		row[i] = sentinel
	}
	if _, err := st.decodeConsumerInto(0, row, nil); !errors.Is(err, errCorrupt) {
		t.Fatalf("error %v, want the corrupt-segment error", err)
	}
	for i, v := range row[64:] {
		if v != sentinel {
			t.Fatalf("reading %d, in the block after the corrupt one, was overwritten with %v", 64+i, v)
		}
	}
}
