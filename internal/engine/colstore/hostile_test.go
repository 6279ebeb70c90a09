package colstore

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
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
	return path, st.areaOff[0] + int64(h.off), int(h.valLen)
}

// flatHdrOff is the file offset of block b's header in flatSegments'
// file: its one consumer's headers follow the 128-hour temperature.
func flatHdrOff(b int) int64 { return headerSize + 8*128 + int64(b)*blockHdrSize }

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

// segmentHeader is a v4 file header with the given counts whose
// directory ends the file at fileSize.
func segmentHeader(consumers, n, blockRows uint32, dirOff, fileSize uint64) []byte {
	b := make([]byte, headerSize)
	copy(b, magic4[:])
	binary.LittleEndian.PutUint32(b[8:], consumers)
	binary.LittleEndian.PutUint32(b[12:], n)
	binary.LittleEndian.PutUint32(b[16:], blockRows)
	binary.LittleEndian.PutUint64(b[28:], dirOff)
	binary.LittleEndian.PutUint64(b[36:], fileSize)
	return b
}

// hostileDirectory is a well-bounded file of `consumers` consumers with
// n hours in blocks of one row: temperature and directory fit the file,
// but consumers x n block headers of 24 bytes do not.
func hostileDirectory(consumers, n int) []byte {
	dirOff := headerSize + 8*n
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
// promises more, or other, than the file holds (or, in one, a byte no
// field accounts for). consumers scales the
// directory case: at 1<<16 its block headers would take 96 GiB. The
// flat file's two blocks have 11-byte payloads and 64 rows each.
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
	// One byte between the last segment and the directory, which moves
	// down a byte.
	dirOff := binary.LittleEndian.Uint64(flat[28:])
	gap := append(append(append([]byte(nil), flat[:dirOff]...), 0), flat[dirOff:]...)
	binary.LittleEndian.PutUint64(gap[28:], dirOff+1)
	binary.LittleEndian.PutUint64(gap[36:], uint64(len(gap)))
	// Two readings in blocks of one row, the block rows then raised to
	// 2^31-1: n + blockRows - 1 once wrapped negative where int is 32
	// bits, and the block-header table was sized by a block count of -1.
	twoPath := filepath.Join(t.TempDir(), SegmentFileName)
	writeSegmentWith(t, twoPath, make([]float64, 2), encodeTestSeries(t, 1, 2), WithBlockRows(1))
	wide, err := os.ReadFile(twoPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(wide[16:], 0x7fffffff)
	return map[string][]byte{
		"block rows near 2^31":             wide,
		"hours":                            hours,
		"block headers":                    hostileDirectory(consumers, consumers),
		"value length":                     patched(flatHdrOff(0), 0xFFFFFFF0),
		"value lengths overrun the area":   patched(flatHdrOff(1), 12),
		"area longer than its blocks":      patched(flatHdrOff(1), 10),
		"NaN count above the block's rows": patched(flatHdrOff(0)+4, 65),
		"NaN count past 2^31":              patched(flatHdrOff(0)+4, 0xFFFFFFFF),
		"a byte outside every segment":     gap,
	}
}

// TestHostileHeaderRefusedBeforeAllocating: a header field that sizes
// an allocation or a read — the hour count, the block-header table, a
// block's value length — is checked against the file at open, so a
// 4 KiB file cannot ask for 32 GiB; and every byte must be accounted
// for: the segments tile the file up to the directory, the value
// lengths add up to each consumer's payload area exactly, and no block
// counts more NaNs than rows.
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

// v3Segment is flatSegments' file under the v3 magic, the way every
// file written before format v4 begins.
func v3Segment(t testing.TB) []byte {
	t.Helper()
	path, _, _ := flatSegments(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[5] = '3'
	return data
}

// TestV3SegmentRefused: a v3 file is the corrupt-segment error, in
// words that name its version. There is no v3 reader to fall back to.
func TestV3SegmentRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	if err := os.WriteFile(path, v3Segment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(path)
	if err == nil {
		st.close()
		t.Fatal("a v3 file opened")
	}
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), `"SMCOL3"`) {
		t.Fatalf("error %v, want the corrupt-segment error naming SMCOL3", err)
	}
}

// everyModeSegment is a file whose blocks take each value mode — fixed,
// XOR, dictionary and run-length — plus one block holding a NaN, in
// 64-row blocks with a five-row tail.
func everyModeSegment(t testing.TB) []byte {
	t.Helper()
	const n = 2*64 + 5
	rng := rand.New(rand.NewSource(3))
	series := make([][]float64, 5)
	for c := range series {
		series[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		series[0][i] = float64(i*37%1000) / 1000 // fixed: distinct decimals
		series[1][i] = rng.NormFloat64()         // XOR
		series[2][i] = []float64{0.5, 1.25}[i%2] // dictionary
		series[3][i] = 2.5                       // run-length: two runs a block
		if i%64 >= 32 {
			series[3][i] = 7.75
		}
		series[4][i] = float64(i) / 4
	}
	series[4][70] = math.NaN()
	path := filepath.Join(t.TempDir(), SegmentFileName)
	writeSegmentWith(t, path, make([]float64, n), series, WithBlockRows(64))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEveryModeSegmentCoversEveryMode keeps FuzzSegmentFile's seed what
// its name says: the mode byte after each payload's count varint takes
// all four values, and one block counts a NaN.
func TestEveryModeSegmentCoversEveryMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName)
	if err := os.WriteFile(path, everyModeSegment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	modes, nanBlocks := map[byte]bool{}, 0
	for c := 0; c < st.consumers; c++ {
		area, err := st.readArea(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < st.blockCount; b++ {
			h := st.hdr(c, b)
			payload := area[h.off : h.off+h.valLen]
			_, n := binary.Uvarint(payload)
			modes[payload[n]] = true
			if h.nans > 0 {
				nanBlocks++
			}
		}
	}
	if len(modes) != 4 || nanBlocks != 1 {
		t.Fatalf("modes %v and %d NaN blocks, want all four modes and one", modes, nanBlocks)
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
// one-block cache, and through the block summaries of the engine's two
// partition cursors, DecodeBlock on every block; then a fail-fast
// histogram runs over it at two workers, which reads those summaries.
// Nothing may panic, not even inside a partition that recovers the
// panic into an error, and every refusal must be the corrupt-segment
// error (or, for a file of empty series, the histogram's empty-input
// error).
func FuzzSegmentFile(f *testing.F) {
	n := 24*3 + 5
	real := filepath.Join(f.TempDir(), SegmentFileName)
	writeSegmentWith(f, real, make([]float64, n), encodeTestSeries(f, 3, n), WithBlockRows(7))
	seed, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(everyModeSegment(f))
	f.Add(v3Segment(f))
	for _, data := range hostileFiles(f, 16) {
		f.Add(data)
	}
	// A fuzz worker calls the target one input at a time, so the inputs
	// can share one directory.
	dir := f.TempDir()
	path := filepath.Join(dir, SegmentFileName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(dir)
		if _, err := e.OpenExisting(); err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("open: %v, want the corrupt-segment error", err)
			}
			return
		}
		defer e.Release()
		st := e.store
		check := func(what string, err error) {
			var pe *core.PanicError
			if errors.As(err, &pe) || (err != nil && !errors.Is(err, errCorrupt)) {
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
		curs, err := e.NewCursors(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, cur := range curs {
			sc := cur.(core.SummaryCursor)
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
			_ = cur.Close()
		}
		res, err := e.Run(core.Spec{Task: core.TaskHistogram, Workers: 2})
		switch {
		case err == nil && len(res.Histograms) != st.consumers:
			t.Fatalf("histogram: %d results for %d consumers", len(res.Histograms), st.consumers)
		case st.n == 0 && errors.Is(err, stats.ErrEmptyInput):
		default:
			check("histogram", err)
		}
	})
}
