package colstore

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// flatSegments writes one consumer whose every reading is 2.5 in two
// blocks of 64 rows, so each block's value payload is the run-length
// form [count 64][mode][8 value bytes][run 64], and returns the path
// with the file offset and length of block 0's value payload.
func flatSegments(t testing.TB) (path string, off int64, valLen int) {
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
	st, err := openStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	h := st.hdr(0, 0)
	if h.valLen != 11 {
		t.Fatalf("flat block payload is %d bytes, want the 11 of the run-length form", h.valLen)
	}
	return path, st.areaOff[0] + int64(h.payloadOff) + int64(h.tsLen), int(h.valLen)
}

// flatHdrOff is the file offset of block b's header in flatSegments'
// file: its one consumer's headers follow the 128-hour temperature.
func flatHdrOff(b int) int64 { return headerSize2 + 8*128 + int64(b)*blockHdrSize }

func patchFile(t testing.TB, path string, off int64, b []byte) {
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

// segmentHeader is a v3 file header with the given counts whose
// directory ends the file at fileSize.
func segmentHeader(consumers, n, blockRows uint32, dirOff, fileSize uint64) []byte {
	b := make([]byte, headerSize2)
	copy(b, magic3[:])
	binary.LittleEndian.PutUint32(b[8:], consumers)
	binary.LittleEndian.PutUint32(b[12:], n)
	binary.LittleEndian.PutUint32(b[16:], blockRows)
	binary.LittleEndian.PutUint64(b[32:], dirOff)
	binary.LittleEndian.PutUint64(b[40:], fileSize)
	return b
}

// hostileDirectory is a well-bounded file of `consumers` consumers with
// n hours in blocks of one row: temperature and directory fit the file,
// but consumers x n block headers of 64 bytes do not.
func hostileDirectory(consumers, n int) []byte {
	dirOff := headerSize2 + 8*n
	size := dirOff + consumers*dirEntSize
	b := make([]byte, size)
	copy(b, segmentHeader(uint32(consumers), uint32(n), 1, uint64(dirOff), uint64(size)))
	for c := 0; c < consumers; c++ {
		ent := b[dirOff+c*dirEntSize:]
		binary.LittleEndian.PutUint64(ent[0:], uint64(c+1))
		binary.LittleEndian.PutUint64(ent[8:], uint64(dirOff))
		binary.LittleEndian.PutUint32(ent[20:], uint32(n))
	}
	return b
}

// hostileFiles are segment files with one header field each that
// promises more than the file holds. consumers scales the directory
// case: at 1<<16 its block headers would take 256 GiB.
func hostileFiles(t testing.TB, consumers int) map[string][]byte {
	t.Helper()
	path, _, _ := flatSegments(t)
	flat, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patched := func(off int64, v uint32) []byte {
		b := append([]byte(nil), flat...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	hours := make([]byte, 4096)
	copy(hours, segmentHeader(1, 0xF0000000, 1, 4096-dirEntSize, 4096))
	return map[string][]byte{
		"hours":          hours,
		"block headers":  hostileDirectory(consumers, consumers),
		"value length":   patched(flatHdrOff(0)+20, 0xFFFFFFF0),
		"payload offset": patched(flatHdrOff(1)+12, 0xFFFFFF00),
		"block rows":     patched(flatHdrOff(0)+4, 1000),
	}
}

// TestHostileHeaderRefusedBeforeAllocating: a header field that sizes
// an allocation or a read — the hour count, the block-header table, a
// block's value length, payload offset or row count — is checked
// against the file at open, so a 4 KiB file cannot ask for 32 GiB.
func TestHostileHeaderRefusedBeforeAllocating(t *testing.T) {
	for name, data := range hostileFiles(t, 1<<16) {
		path := filepath.Join(t.TempDir(), SegmentFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := openStore(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			st.close()
			t.Fatalf("%s: a hostile header opened", name)
		}
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: error %v, want the corrupt-segment error", name, err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<16 {
			t.Fatalf("%s: refusing the file took %d bytes", name, grown)
		}
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
	st, err := openStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	p := newPager(st, 0)
	row := make([]float64, st.n)
	area := make([]byte, st.areaLen[0])
	decode := func() {
		if _, err = p.readConsumer(0, row, area); err == nil {
			t.Fatal("hostile payload decoded")
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(100, decode)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("error %v, want the corrupt-segment error", err)
	}
	// What is allowed to allocate is the error value.
	if grown := after.TotalAlloc - before.TotalAlloc; allocs > 8 || grown > 1<<16 {
		t.Fatalf("refusing the block took %.0f allocations and %d bytes over 101 runs", allocs, grown)
	}
}

// TestPayloadCountCannotOverrunItsBlock makes block 0's payload a valid
// encoding of one value more than its header holds. Decoding the row
// must fail without touching the first reading of block 1.
func TestPayloadCountCannotOverrunItsBlock(t *testing.T) {
	path, off, valLen := flatSegments(t)
	patchFile(t, path, off, []byte{65})                 // count varint
	patchFile(t, path, off+int64(valLen)-1, []byte{65}) // run length
	st, err := openStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	const sentinel = -77.0
	row := make([]float64, st.n)
	for i := range row {
		row[i] = sentinel
	}
	if _, err := newPager(st, 0).readConsumer(0, row, nil); !errors.Is(err, errCorrupt) {
		t.Fatalf("error %v, want the corrupt-segment error", err)
	}
	for i, v := range row[64:] {
		if v != sentinel {
			t.Fatalf("reading %d, in the block after the corrupt one, was overwritten with %v", 64+i, v)
		}
	}
}

// FuzzSegmentFile opens arbitrary bytes as a segment file. A file that
// opens is read in full through the pager, with no cache and with a
// one-block cache, and through a summary cursor's DecodeBlock. Nothing
// may panic, and every refusal must be the corrupt-segment error.
func FuzzSegmentFile(f *testing.F) {
	n := 24*3 + 5
	real := filepath.Join(f.TempDir(), SegmentFileName)
	writeSegmentWith(f, real, make([]float64, n), encodeTestSeries(f, 3, n), WithBlockRows(7))
	seed, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, data := range hostileFiles(f, 16) {
		f.Add(data)
	}
	// A fuzz worker calls the target one input at a time, so the inputs
	// can share one file.
	path := filepath.Join(f.TempDir(), "input.col")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := openStore(path)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("open: %v, want the corrupt-segment error", err)
			}
			return
		}
		defer st.close()
		check := func(what string, err error) {
			if err != nil && !errors.Is(err, errCorrupt) {
				t.Fatalf("%s: %v, want the corrupt-segment error", what, err)
			}
		}
		row := make([]float64, st.n)
		for _, budget := range []int64{0, 8 * int64(min(st.blockRows, st.n))} {
			p := newPager(st, budget)
			var area []byte
			for c := 0; c < st.consumers; c++ {
				area, err = p.readConsumer(c, row, area)
				check("pager", err)
			}
		}
		sc := newSummaryCursor(st, 0, st.consumers)
		for {
			_, blocks, err := sc.NextSummary()
			if err == io.EOF {
				break
			}
			check("summary", err)
			for b, bs := range blocks {
				check("DecodeBlock", sc.DecodeBlock(b, row[:bs.Count]))
			}
		}
	})
}
