package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Segment file layout v3 ("SMCOL3", little endian):
//
//	magic "SMCOL3\n" (7 bytes) + 1 pad byte
//	u32 consumers   (patched at Close)
//	u32 seriesLen
//	u32 blockRows
//	u32 reserved
//	u64 rawBytes    (patched at Close)
//	u64 dirOffset   (patched at Close)
//	u64 fileSize    (patched at Close)
//	temperature column: seriesLen x f64 (raw — one column per file)
//	per consumer, in ascending household order:
//	    blockCount x 64-byte block header:
//	        u32 start, u32 count, u32 nans,
//	        u32 payloadOff (relative to this consumer's payload area),
//	        u32 tsLen, u32 valLen, u32 laneLen, u32 flags,
//	        f64 min, f64 max, f64 sum, f64 sumSq
//	    payload area: per block, colcodec timestamps, then values, then
//	        the lane section (laneLen bytes): the 24 per-hour sums as a
//	        colcodec value payload, followed — when flags carry
//	        BlockHourPeriodic — by the 24-value tile pattern. Lane
//	        counts are not stored: they are derived from (start, count)
//	        on the implicit hourly grid. NaN-bearing blocks store no
//	        lane section (laneLen 0, no BlockHourLanes flag).
//	directory at dirOffset: consumers x 24-byte entry:
//	    u64 household id, u64 segOffset, u32 segLen, u32 blockCount
//
// The header fields a streaming writer cannot know up front are patched
// in place at Close, so a million-consumer file is written
// consumer-by-consumer without ever holding the raw matrix.
//
// v3 over v2: block headers grew lane length + structure flags (+8
// bytes), the default block size became day-aligned, and encoding can
// fan out over a worker pool — the file bytes are identical whichever
// encoder count produced them, because every consumer's bytes come
// from the same pure encodeConsumer function and land in appended
// order.

var magic3 = [8]byte{'S', 'M', 'C', 'O', 'L', '3', '\n', 0}

const (
	headerSize2  = 48
	blockHdrSize = 64
	dirEntSize   = 24

	// DefaultBlockRows is the row count per compressed block: 42 days
	// of hourly readings, ~8 KiB raw — large enough to amortize
	// per-block headers to ~1% and small enough that summary-driven
	// block skipping has resolution. Day-aligned (a multiple of 24) so
	// whole blocks sit on the hour grid and compressed-domain kernels
	// can consume their per-hour lanes without decoding.
	DefaultBlockRows = 1008
)

// blockHdr is the in-memory mirror of an on-disk block header.
type blockHdr struct {
	start, count, nans   uint32
	payloadOff           uint32
	tsLen, valLen        uint32
	laneLen, flags       uint32
	min, max, sum, sumSq float64
}

// SegmentWriter streams consumers into a v3 segment file in ascending
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
	ls         colcodec.LaneSummary
	buf        []byte
	qbuf       []float64
	tsPayloads [][]byte
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

// NewSegmentWriter creates path (truncating any previous file) and
// writes the header and temperature column. Callers must Append every
// consumer in ascending ID order and then Close.
func NewSegmentWriter(path string, temp []float64, opts ...WriterOption) (*SegmentWriter, error) {
	w := &SegmentWriter{path: path, n: len(temp), blockRows: DefaultBlockRows}
	for _, opt := range opts {
		opt(w)
	}
	w.blockCount = 0
	if w.n > 0 {
		w.blockCount = (w.n + w.blockRows - 1) / w.blockRows
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: create segments: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 1<<20)
	hdr := make([]byte, headerSize2)
	copy(hdr, magic3[:])
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
	w.off = int64(headerSize2 + len(col))
	// Block timestamps are the implicit hour grid — identical for every
	// consumer — so their payloads are encoded once and shared by all
	// encode paths (and, read-only, by all pool workers).
	w.tsPayloads = make([][]byte, w.blockCount)
	ts := make([]int64, w.blockRows)
	for b := 0; b < w.blockCount; b++ {
		start := b * w.blockRows
		end := start + w.blockRows
		if end > w.n {
			end = w.n
		}
		blkTs := ts[:end-start]
		for i := range blkTs {
			blkTs[i] = int64(start + i)
		}
		w.tsPayloads[b] = colcodec.AppendTimestamps(nil, blkTs)
	}
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
// encoder/lane scratch. This is a per-reading hot path: no allocations
// beyond amortized buffer growth.
func encodeConsumer(enc *colcodec.Encoder, ls *colcodec.LaneSummary, buf []byte, vals []float64, blockRows, blockCount int, tsPayloads [][]byte) []byte {
	hdrLen := blockCount * blockHdrSize
	if cap(buf) < hdrLen {
		buf = make([]byte, hdrLen, hdrLen+2*len(vals))
	}
	buf = buf[:hdrLen]
	for b := 0; b < blockCount; b++ {
		start := b * blockRows
		end := start + blockRows
		if end > len(vals) {
			end = len(vals)
		}
		blk := vals[start:end]
		sum := colcodec.Summarize(blk)
		payloadOff := len(buf) - hdrLen
		buf = append(buf, tsPayloads[b]...)
		tsLen := len(buf) - hdrLen - payloadOff
		buf = enc.AppendValues(buf, blk)
		valLen := len(buf) - hdrLen - payloadOff - tsLen
		var flags core.BlockFlags
		laneLen := 0
		if colcodec.SummarizeHours(start, blk, ls) {
			flags |= core.BlockHourLanes
			mark := len(buf)
			buf = enc.AppendValues(buf, ls.Sums[:])
			if ls.Constant {
				flags |= core.BlockConstant
			} else if ls.Periodic && len(blk) > 24 {
				// The tile is stored explicitly: dividing lane sums by
				// counts would not reproduce the values bit-exactly.
				flags |= core.BlockHourPeriodic
				buf = enc.AppendValues(buf, ls.Pattern[:])
			}
			laneLen = len(buf) - mark
		}
		putBlockHdr(buf[b*blockHdrSize:], blockHdr{
			start:      uint32(start),
			count:      uint32(end - start),
			nans:       uint32(sum.NaNs),
			payloadOff: uint32(payloadOff),
			tsLen:      uint32(tsLen),
			valLen:     uint32(valLen),
			laneLen:    uint32(laneLen),
			flags:      uint32(flags),
			min:        sum.Min,
			max:        sum.Max,
			sum:        sum.Sum,
			sumSq:      sum.SumSq,
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
	w.buf = encodeConsumer(&w.enc, &w.ls, w.buf, vals, w.blockRows, w.blockCount, w.tsPayloads)
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

func putBlockHdr(dst []byte, h blockHdr) {
	binary.LittleEndian.PutUint32(dst[0:], h.start)
	binary.LittleEndian.PutUint32(dst[4:], h.count)
	binary.LittleEndian.PutUint32(dst[8:], h.nans)
	binary.LittleEndian.PutUint32(dst[12:], h.payloadOff)
	binary.LittleEndian.PutUint32(dst[16:], h.tsLen)
	binary.LittleEndian.PutUint32(dst[20:], h.valLen)
	binary.LittleEndian.PutUint32(dst[24:], h.laneLen)
	binary.LittleEndian.PutUint32(dst[28:], h.flags)
	binary.LittleEndian.PutUint64(dst[32:], math.Float64bits(h.min))
	binary.LittleEndian.PutUint64(dst[40:], math.Float64bits(h.max))
	binary.LittleEndian.PutUint64(dst[48:], math.Float64bits(h.sum))
	binary.LittleEndian.PutUint64(dst[56:], math.Float64bits(h.sumSq))
}

func parseBlockHdr(b []byte) blockHdr {
	return blockHdr{
		start:      binary.LittleEndian.Uint32(b[0:]),
		count:      binary.LittleEndian.Uint32(b[4:]),
		nans:       binary.LittleEndian.Uint32(b[8:]),
		payloadOff: binary.LittleEndian.Uint32(b[12:]),
		tsLen:      binary.LittleEndian.Uint32(b[16:]),
		valLen:     binary.LittleEndian.Uint32(b[20:]),
		laneLen:    binary.LittleEndian.Uint32(b[24:]),
		flags:      binary.LittleEndian.Uint32(b[28:]),
		min:        math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
		max:        math.Float64frombits(binary.LittleEndian.Uint64(b[40:])),
		sum:        math.Float64frombits(binary.LittleEndian.Uint64(b[48:])),
		sumSq:      math.Float64frombits(binary.LittleEndian.Uint64(b[56:])),
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
	var patch [40]byte
	binary.LittleEndian.PutUint32(patch[0:], uint32(w.consumers))
	binary.LittleEndian.PutUint32(patch[4:], uint32(w.n))
	binary.LittleEndian.PutUint32(patch[8:], uint32(w.blockRows))
	binary.LittleEndian.PutUint64(patch[16:], uint64(w.rawBytes))
	binary.LittleEndian.PutUint64(patch[24:], uint64(dirOff))
	binary.LittleEndian.PutUint64(patch[32:], uint64(fileSize))
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

// segStore is an attached v3 segment file: the resident metadata
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
	var hdr [headerSize2]byte
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
// sizes an allocation or a read, and every block is checked to lie on
// the hour grid and inside its consumer's payload area, so no later
// read trusts an unchecked field.
func (st *segStore) parseMeta(hdr [headerSize2]byte) error {
	for i, b := range magic3 {
		if hdr[i] != b {
			return fmt.Errorf("%w: bad magic", errCorrupt)
		}
	}
	st.consumers = int(binary.LittleEndian.Uint32(hdr[8:]))
	st.n = int(binary.LittleEndian.Uint32(hdr[12:]))
	st.blockRows = int(binary.LittleEndian.Uint32(hdr[16:]))
	st.rawBytes = int64(binary.LittleEndian.Uint64(hdr[24:]))
	dirOff := int64(binary.LittleEndian.Uint64(hdr[32:]))
	st.fileSize = int64(binary.LittleEndian.Uint64(hdr[40:]))
	if st.consumers <= 0 || st.n < 0 || st.blockRows <= 0 {
		return fmt.Errorf("%w: header counts", errCorrupt)
	}
	if fi, err := st.f.Stat(); err != nil || fi.Size() != st.fileSize {
		return fmt.Errorf("%w: size mismatch", errCorrupt)
	}
	st.blockCount = 0
	if st.n > 0 {
		st.blockCount = (st.n + st.blockRows - 1) / st.blockRows
	}
	// The temperature column, the consumers' segments and the directory
	// follow the header in that order and end the file.
	tempEnd := headerSize2 + 8*int64(st.n)
	dirLen := int64(st.consumers) * dirEntSize
	if dirOff < tempEnd || dirOff > st.fileSize || st.fileSize-dirOff != dirLen {
		return fmt.Errorf("%w: directory bounds", errCorrupt)
	}
	hdrLen := int64(st.blockCount) * blockHdrSize
	if hdrLen > (dirOff-tempEnd)/int64(st.consumers) {
		return fmt.Errorf("%w: block headers exceed the file", errCorrupt)
	}
	tempRaw, err := st.readAt(headerSize2, 8*st.n, nil)
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
		if segOff < tempEnd || segLen < hdrLen || segOff > dirOff-segLen {
			return fmt.Errorf("%w: segment bounds", errCorrupt)
		}
		st.areaOff[c], st.areaLen[c] = segOff+hdrLen, int(segLen-hdrLen)
		scratch, err = st.readAt(segOff, int(hdrLen), scratch)
		if err != nil {
			return err
		}
		for b := 0; b < st.blockCount; b++ {
			h := parseBlockHdr(scratch[b*blockHdrSize:])
			start := b * st.blockRows
			end := int64(h.payloadOff) + int64(h.tsLen) + int64(h.valLen) + int64(h.laneLen)
			if int(h.start) != start || int(h.count) != min(st.blockRows, st.n-start) ||
				end > int64(st.areaLen[c]) {
				return fmt.Errorf("%w: consumer %d block %d header", errCorrupt, st.ids[c], b)
			}
			st.hdrs[c*st.blockCount+b] = h
		}
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

// readArea is the one read of block payloads: consumer c's whole
// payload area with one pread, into area, returned possibly grown so
// each reader amortizes its own I/O buffer. Blocks are decoded out of
// it with decodeBlock.
func (st *segStore) readArea(c int, area []byte) ([]byte, error) {
	return st.readAt(st.areaOff[c], st.areaLen[c], area)
}

// decodeBlock decodes block b of consumer c out of the consumer's
// payload area into dst, which must hold the block's rows. The header
// says how many rows the block holds; the payload is not asked, so it
// can neither overrun the block's range of a row nor size an
// allocation.
func (st *segStore) decodeBlock(c, b int, area []byte, dst []float64) error {
	h := st.hdr(c, b)
	lo := int(h.payloadOff) + int(h.tsLen)
	if err := colcodec.DecodeExact(area[lo:lo+int(h.valLen)], dst[:h.count]); err != nil {
		return fmt.Errorf("%w: consumer %d block %d: %w", errCorrupt, st.ids[c], b, err)
	}
	return nil
}

// metaBytes reports the resident metadata footprint (temperature,
// directory and block headers) — what an attached paged store costs
// before any block is decoded.
func (st *segStore) metaBytes() int64 {
	return int64(8*len(st.temp)) + int64(len(st.ids))*dirEntSize + int64(len(st.hdrs))*blockHdrSize
}
