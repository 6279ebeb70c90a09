package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Segment file layout v4 ("SMCOL4", little endian). Every stored byte
// has a reader.
//
//	magic "SMCOL4\n" (7 bytes) + 1 zero byte, compared whole
//	u32 consumers   (patched at Close)
//	u32 seriesLen
//	u32 blockRows
//	u64 rawBytes    (patched at Close)
//	u64 dirOffset   (patched at Close)
//	u64 fileSize    (patched at Close)
//	temperature column: seriesLen x f64 (raw — one column per file)
//	per consumer, in ascending household order:
//	    blockCount x 24-byte block header:
//	        u32 valLen, u32 nans, f64 min, f64 max
//	    payload area: the blocks' colcodec value payloads, back to back
//	        in block order, valLen bytes each and nothing else
//	directory at dirOffset: consumers x 24-byte entry:
//	    u64 household id, u64 segOffset, u32 segLen, u32 blockCount
//
// Block b of a consumer holds rows [b·blockRows, min((b+1)·blockRows,
// seriesLen)) on the implicit hourly grid, and its payload starts at the
// sum of the earlier blocks' valLen; none of the three is stored.
// parseMeta requires the segments to follow one another from the end of
// the temperature column to the directory and each consumer's payload
// area to be exactly the sum of its blocks' valLen, and
// colcodec.DecodeExact requires each payload to hold exactly its
// block's values, so no byte goes unaccounted for.
//
// The header fields a streaming writer cannot know up front are patched
// in place at Close, so a million-consumer file is written
// consumer-by-consumer without ever holding the raw matrix. The file
// bytes are identical whichever encoder count produced them, because
// every consumer's bytes come from the same pure encodeConsumer function
// and land in appended order.
//
// A file of an earlier version is refused, by name. Every stored file
// is one the repo generates, so there is no migration.

var magic4 = [8]byte{'S', 'M', 'C', 'O', 'L', '4', '\n', 0}

const (
	headerSize   = 44
	blockHdrSize = 24
	dirEntSize   = 24

	// DefaultBlockRows is the row count per compressed block: 42 days
	// of hourly readings, ~8 KiB raw. It is large enough that the 24-byte
	// headers stay under 2% of a Wh-quantized file, and small enough that
	// the histogram's summary path finds whole blocks inside one bucket
	// (about a tenth of the benchmark's blocks). No reader needs the
	// blocks day-aligned any more; the size stays so that stored bytes
	// and summary-block counts remain comparable across records.
	DefaultBlockRows = 1008
)

// blockHdr is a block's header as parseMeta leaves it: the stored
// fields, and off, the payload's offset in its consumer's payload area,
// derived from the value lengths before it.
type blockHdr struct {
	off, valLen, nans uint32
	min, max          float64
}

// SegmentWriter streams consumers into a v4 segment file in ascending
// household order. It holds a bounded number of consumers' encoded
// blocks at a time — never the dataset — so generation and load run
// out-of-core. With WithEncoders(n>1) block encoding fans out over a
// worker pool while file writes stay in append order.
type SegmentWriter struct {
	path       string
	f          *os.File
	w          *bufio.Writer
	n          int
	blockRows  int
	blockCount int
	quantPow   float64 // 0: no quantization
	off        int64
	consumers  int
	lastID     timeseries.ID
	rawBytes   int64
	dir        []byte
	enc        colcodec.Encoder
	buf        []byte
	qbuf       []float64
	closed     bool

	encoders int
	pool     *encodePool
}

// WriterOption configures a SegmentWriter.
type WriterOption func(*SegmentWriter)

// WithBlockRows overrides the rows-per-block (tests use small blocks to
// exercise multi-block series with short datasets).
func WithBlockRows(rows int) WriterOption {
	return func(w *SegmentWriter) {
		if rows > 0 {
			w.blockRows = rows
		}
	}
}

// WithQuantize rounds every reading to the given number of decimal
// digits before encoding — the stored values ARE the dataset from then
// on (every engine reading this file sees the quantized values, so
// results stay bit-identical across engines). Generated data uses 3
// digits: Wh resolution, beyond any real meter, and what makes the
// fixed-point codec bite.
func WithQuantize(digits int) WriterOption {
	return func(w *SegmentWriter) {
		if digits >= 0 {
			w.quantPow = math.Pow(10, float64(digits))
		}
	}
}

// WithEncoders sets the number of concurrent block encoders. n <= 1
// keeps the historical serial path. The segment file is byte-identical
// whichever count is used; only wall-clock changes.
func WithEncoders(n int) WriterOption {
	return func(w *SegmentWriter) {
		if n > 1 {
			w.encoders = n
		}
	}
}

// blocksFor is how many blocks of blockRows (> 0) rows hold n rows:
// ceil(n / blockRows), without the sum n + blockRows - 1, which a stored
// blockRows near 2^31 wraps negative where int is 32 bits.
func blocksFor(n, blockRows int) int {
	if n <= 0 {
		return 0
	}
	return (n-1)/blockRows + 1
}

// NewSegmentWriter creates path (truncating any previous file) and
// writes the header and temperature column. Callers must Append every
// consumer in ascending ID order and then Close.
func NewSegmentWriter(path string, temp []float64, opts ...WriterOption) (*SegmentWriter, error) {
	w := &SegmentWriter{path: path, n: len(temp), blockRows: DefaultBlockRows}
	for _, opt := range opts {
		opt(w)
	}
	w.blockCount = blocksFor(w.n, w.blockRows)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: create segments: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 1<<20)
	hdr := make([]byte, headerSize)
	copy(hdr, magic4[:])
	binary.LittleEndian.PutUint32(hdr[12:], uint32(w.n))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(w.blockRows))
	if _, err := w.w.Write(hdr); err != nil {
		return nil, w.fail(err)
	}
	col := make([]byte, 8*len(temp))
	for i, v := range temp {
		binary.LittleEndian.PutUint64(col[i*8:], math.Float64bits(v))
	}
	if _, err := w.w.Write(col); err != nil {
		return nil, w.fail(err)
	}
	w.off = int64(headerSize + len(col))
	if w.encoders > 1 {
		w.pool = newEncodePool(w)
	}
	return w, nil
}

func (w *SegmentWriter) fail(err error) error {
	w.closed = true
	_ = w.f.Close()
	return fmt.Errorf("colstore: write segments: %w", err)
}

// quantizeInPlace rounds vals to the writer's decimal resolution.
func quantizeInPlace(vals []float64, quantPow float64) {
	for i, v := range vals {
		vals[i] = math.Round(v*quantPow) / quantPow
	}
}

// encodeConsumer encodes one consumer's (already quantized) readings
// into buf: blockCount fixed-size block headers followed by the payload
// area, exactly the bytes Append writes for that consumer. It is a pure
// function of vals and the writer geometry — the serial path and every
// pool worker produce identical bytes — reusing buf and the caller's
// encoder scratch. This is a per-reading hot path: no allocations
// beyond amortized buffer growth.
func encodeConsumer(enc *colcodec.Encoder, buf []byte, vals []float64, blockRows, blockCount int) []byte {
	hdrLen := blockCount * blockHdrSize
	if cap(buf) < hdrLen {
		buf = make([]byte, hdrLen, hdrLen+2*len(vals))
	}
	buf = buf[:hdrLen]
	for b := 0; b < blockCount; b++ {
		start := b * blockRows
		blk := vals[start:min(start+blockRows, len(vals))]
		sum := colcodec.Summarize(blk)
		mark := len(buf)
		buf = enc.AppendValues(buf, blk)
		putBlockHdr(buf[b*blockHdrSize:], blockHdr{
			valLen: uint32(len(buf) - mark),
			nans:   uint32(sum.NaNs),
			min:    sum.Min,
			max:    sum.Max,
		})
	}
	return buf
}

// Append encodes one consumer's readings. IDs must arrive in strictly
// ascending order (the cursor contract downstream).
func (w *SegmentWriter) Append(id timeseries.ID, readings []float64) error {
	if w.closed {
		return fmt.Errorf("colstore: append to closed segment writer")
	}
	if len(readings) != w.n {
		return fmt.Errorf("colstore: consumer %d has %d readings, temperature has %d", id, len(readings), w.n)
	}
	if w.consumers > 0 && id <= w.lastID {
		return fmt.Errorf("colstore: appends must arrive in ascending household order: %d after %d", id, w.lastID)
	}
	w.rawBytes += int64(8 * len(readings))
	w.lastID = id
	w.consumers++
	if w.pool != nil {
		return w.pool.append(id, readings)
	}
	vals := readings
	if w.quantPow > 0 {
		if cap(w.qbuf) < len(readings) {
			w.qbuf = make([]float64, len(readings))
		}
		w.qbuf = w.qbuf[:len(readings)]
		copy(w.qbuf, readings)
		quantizeInPlace(w.qbuf, w.quantPow)
		vals = w.qbuf
	}
	w.buf = encodeConsumer(&w.enc, w.buf, vals, w.blockRows, w.blockCount)
	if err := w.writeConsumer(id, w.buf); err != nil {
		return w.fail(err)
	}
	return nil
}

// writeConsumer appends one consumer's encoded bytes and directory
// entry. In pool mode it runs only on the pool's writer goroutine, in
// appended order; it must not touch the writer's closed/file state
// (the pool records its error and Close cleans up).
func (w *SegmentWriter) writeConsumer(id timeseries.ID, buf []byte) error {
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	var ent [dirEntSize]byte
	binary.LittleEndian.PutUint64(ent[0:], uint64(id))
	binary.LittleEndian.PutUint64(ent[8:], uint64(w.off))
	binary.LittleEndian.PutUint32(ent[16:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(ent[20:], uint32(w.blockCount))
	w.dir = append(w.dir, ent[:]...)
	w.off += int64(len(buf))
	return nil
}

// putBlockHdr writes h's stored fields; off is derived, not stored.
func putBlockHdr(dst []byte, h blockHdr) {
	binary.LittleEndian.PutUint32(dst[0:], h.valLen)
	binary.LittleEndian.PutUint32(dst[4:], h.nans)
	binary.LittleEndian.PutUint64(dst[8:], math.Float64bits(h.min))
	binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(h.max))
}

func parseBlockHdr(b []byte) blockHdr {
	return blockHdr{
		valLen: binary.LittleEndian.Uint32(b[0:]),
		nans:   binary.LittleEndian.Uint32(b[4:]),
		min:    math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		max:    math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}
}

// RawBytes returns the uncompressed reading-matrix size appended so far.
func (w *SegmentWriter) RawBytes() int64 { return w.rawBytes }

// Consumers returns the number of consumers appended so far.
func (w *SegmentWriter) Consumers() int { return w.consumers }

// Close drains any encode pool, writes the directory, patches the
// header, fsyncs, and closes the file.
func (w *SegmentWriter) Close() error {
	if w.closed {
		return nil
	}
	if w.pool != nil {
		if err := w.pool.drain(); err != nil {
			w.closed = true
			_ = w.f.Close()
			return err
		}
	}
	w.closed = true
	if w.consumers == 0 {
		_ = w.f.Close()
		_ = os.Remove(w.path)
		return fmt.Errorf("colstore: empty dataset")
	}
	dirOff := w.off
	if _, err := w.w.Write(w.dir); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("colstore: write segments: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("colstore: write segments: %w", err)
	}
	fileSize := dirOff + int64(len(w.dir))
	var patch [headerSize - 8]byte
	binary.LittleEndian.PutUint32(patch[0:], uint32(w.consumers))
	binary.LittleEndian.PutUint32(patch[4:], uint32(w.n))
	binary.LittleEndian.PutUint32(patch[8:], uint32(w.blockRows))
	binary.LittleEndian.PutUint64(patch[12:], uint64(w.rawBytes))
	binary.LittleEndian.PutUint64(patch[20:], uint64(dirOff))
	binary.LittleEndian.PutUint64(patch[28:], uint64(fileSize))
	if _, err := w.f.WriteAt(patch[:], 8); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("colstore: patch header: %w", err)
	}
	// Fsync before close: callers rename this file over the live
	// segment, and the rename must never be able to outrun the data.
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("colstore: sync segments: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("colstore: close segments: %w", err)
	}
	return nil
}

// segStore is an attached v4 segment file: the resident metadata
// (temperature, directory and block headers) and the open file that
// payloads are read from on demand.
type segStore struct {
	path       string
	f          *os.File
	consumers  int
	n          int
	blockRows  int
	blockCount int
	rawBytes   int64
	fileSize   int64
	temp       []float64
	ids        []timeseries.ID
	hdrs       []blockHdr // consumers x blockCount, row-major
	// Each consumer's payload area: the bytes from the end of its block
	// headers to the end of its segment, where its last block ends.
	areaOff []int64
	areaLen []int
}

// openStore attaches a segment file: it reads the header, temperature,
// directory and block headers, and leaves the payloads on disk.
func openStore(path string) (*segStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: open segments: %w", err)
	}
	st := &segStore{path: path, f: f}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		st.close()
		return nil, fmt.Errorf("%w: header: %v", errCorrupt, err)
	}
	if err := st.parseMeta(hdr); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// parseMeta reads the metadata the header points at. Every size it
// derives from a stored field is checked against the file before it
// sizes an allocation or a read. The segments must tile the file between
// the temperature column and the directory, each consumer's payload
// area must be exactly the sum of its blocks' value lengths, and no
// block may count more NaNs than it has rows, so no later read trusts
// an unchecked field and no byte of the file goes unaccounted for.
func (st *segStore) parseMeta(hdr [headerSize]byte) error {
	if [8]byte(hdr[:8]) != magic4 {
		if string(hdr[:5]) == "SMCOL" {
			return fmt.Errorf("%w: segment format %q; this build reads only %q", errCorrupt, hdr[:6], magic4[:6])
		}
		return fmt.Errorf("%w: bad magic", errCorrupt)
	}
	st.consumers = int(binary.LittleEndian.Uint32(hdr[8:]))
	st.n = int(binary.LittleEndian.Uint32(hdr[12:]))
	st.blockRows = int(binary.LittleEndian.Uint32(hdr[16:]))
	st.rawBytes = int64(binary.LittleEndian.Uint64(hdr[20:]))
	dirOff := int64(binary.LittleEndian.Uint64(hdr[28:]))
	st.fileSize = int64(binary.LittleEndian.Uint64(hdr[36:]))
	if st.consumers <= 0 || st.n < 0 || st.blockRows <= 0 {
		return fmt.Errorf("%w: header counts", errCorrupt)
	}
	if fi, err := st.f.Stat(); err != nil || fi.Size() != st.fileSize {
		return fmt.Errorf("%w: size mismatch", errCorrupt)
	}
	st.blockCount = blocksFor(st.n, st.blockRows)
	// The temperature column, the consumers' segments and the directory
	// follow the header in that order and end the file.
	tempEnd := headerSize + 8*int64(st.n)
	dirLen := int64(st.consumers) * dirEntSize
	if dirOff < tempEnd || dirOff > st.fileSize || st.fileSize-dirOff != dirLen {
		return fmt.Errorf("%w: directory bounds", errCorrupt)
	}
	hdrLen := int64(st.blockCount) * blockHdrSize
	if hdrLen > (dirOff-tempEnd)/int64(st.consumers) {
		return fmt.Errorf("%w: block headers exceed the file", errCorrupt)
	}
	tempRaw, err := st.readAt(headerSize, 8*st.n, nil)
	if err != nil {
		return err
	}
	st.temp = make([]float64, st.n)
	for i := range st.temp {
		st.temp[i] = math.Float64frombits(binary.LittleEndian.Uint64(tempRaw[i*8:]))
	}
	dir, err := st.readAt(dirOff, int(dirLen), nil)
	if err != nil {
		return err
	}
	st.ids = make([]timeseries.ID, st.consumers)
	st.areaOff = make([]int64, st.consumers)
	st.areaLen = make([]int, st.consumers)
	st.hdrs = make([]blockHdr, st.consumers*st.blockCount)
	var scratch []byte
	// The segments tile the bytes between the temperature column and the
	// directory, each starting where the one before it ended.
	next := tempEnd
	for c := 0; c < st.consumers; c++ {
		ent := dir[c*dirEntSize:]
		st.ids[c] = timeseries.ID(binary.LittleEndian.Uint64(ent[0:]))
		segOff := int64(binary.LittleEndian.Uint64(ent[8:]))
		segLen := int64(binary.LittleEndian.Uint32(ent[16:]))
		if c > 0 && st.ids[c] <= st.ids[c-1] {
			return fmt.Errorf("%w: household order", errCorrupt)
		}
		if int(binary.LittleEndian.Uint32(ent[20:])) != st.blockCount {
			return fmt.Errorf("%w: block count", errCorrupt)
		}
		if segOff != next || segLen < hdrLen || segLen > dirOff-segOff {
			return fmt.Errorf("%w: segment bounds", errCorrupt)
		}
		next += segLen
		st.areaOff[c], st.areaLen[c] = segOff+hdrLen, int(segLen-hdrLen)
		scratch, err = st.readAt(segOff, int(hdrLen), scratch)
		if err != nil {
			return err
		}
		off := int64(0)
		for b := 0; b < st.blockCount; b++ {
			h := parseBlockHdr(scratch[b*blockHdrSize:])
			_, count := st.rows(b)
			if int64(h.valLen) > int64(st.areaLen[c])-off || int64(h.nans) > int64(count) {
				return fmt.Errorf("%w: consumer %d block %d header", errCorrupt, st.ids[c], b)
			}
			h.off = uint32(off)
			off += int64(h.valLen)
			st.hdrs[c*st.blockCount+b] = h
		}
		if off != int64(st.areaLen[c]) {
			return fmt.Errorf("%w: consumer %d payload area holds %d bytes, its blocks %d", errCorrupt, st.ids[c], st.areaLen[c], off)
		}
	}
	if next != dirOff {
		return fmt.Errorf("%w: segments end at %d, the directory starts at %d", errCorrupt, next, dirOff)
	}
	return nil
}

// readAt reads length bytes at off into scratch, grown as needed.
func (st *segStore) readAt(off int64, length int, scratch []byte) ([]byte, error) {
	if cap(scratch) < length {
		scratch = make([]byte, length)
	}
	scratch = scratch[:length]
	if _, err := st.f.ReadAt(scratch, off); err != nil {
		return scratch, fmt.Errorf("%w: read: %v", errCorrupt, err)
	}
	return scratch, nil
}

func (st *segStore) close() {
	if st.f != nil {
		_ = st.f.Close()
		st.f = nil
	}
}

func (st *segStore) hdr(c, b int) *blockHdr { return &st.hdrs[c*st.blockCount+b] }

// rows is block b's row range on the file's geometry: it starts at
// b·blockRows and holds blockRows rows, or what is left of the series.
func (st *segStore) rows(b int) (start, count int) {
	start = b * st.blockRows
	return start, min(st.blockRows, st.n-start)
}

// readArea is the one read of block payloads: consumer c's whole
// payload area with one pread, into area, returned possibly grown so
// each reader amortizes its own I/O buffer. Blocks are decoded out of
// it with decodeBlock.
func (st *segStore) readArea(c int, area []byte) ([]byte, error) {
	return st.readAt(st.areaOff[c], st.areaLen[c], area)
}

// decodeBlock decodes block b of consumer c out of the consumer's
// payload area into dst, which must hold the block's rows. The file's
// geometry says how many rows the block holds; the payload is not
// asked, so it can neither overrun the block's range of a row nor size
// an allocation.
func (st *segStore) decodeBlock(c, b int, area []byte, dst []float64) error {
	h := st.hdr(c, b)
	_, count := st.rows(b)
	if err := colcodec.DecodeExact(area[h.off:h.off+h.valLen], dst[:count]); err != nil {
		return fmt.Errorf("%w: consumer %d block %d: %w", errCorrupt, st.ids[c], b, err)
	}
	return nil
}

// metaBytes reports the resident metadata footprint (temperature,
// directory and block headers as parsed) — what an attached paged store
// costs before any block is decoded.
func (st *segStore) metaBytes() int64 {
	return int64(8*len(st.temp)) + int64(len(st.ids))*dirEntSize + int64(len(st.hdrs))*int64(unsafe.Sizeof(blockHdr{}))
}
