// Package colcodec implements the compressed block codecs behind the
// column store's segment format: delta-of-delta varint timestamp
// encoding and four lossless float64 value encodings chosen per block.
//
// A block is one consumer's contiguous row range (the segment layer
// fixes the row count). Values are encoded in whichever mode is
// smaller-safe for the block's payload:
//
//   - run-length: runs of bit-identical values become (raw bits, run
//     length) pairs. Near-constant series — vacant meters, flat
//     tariffs, imputed stretches — collapse to a handful of bytes per
//     block regardless of length.
//   - dictionary: when a block holds at most 64 distinct bit patterns,
//     values become bit-packed indexes into a small table of raw
//     bits. This wins on repetitive-but-interleaved series where runs
//     are short.
//   - fixed-point: when every value is bit-exactly representable as a
//     decimal with at most 8 fractional digits (true for anything that
//     round-tripped through the benchmark's CSV formatting), values
//     become scaled integers and their deltas are zigzag bit-packed in
//     mini-batches of 128 with a per-batch bit width. Gaussian hourly
//     readings at Wh resolution land near 10-14 bits per reading.
//   - XOR: Gorilla-style XOR of consecutive IEEE-754 bit patterns with
//     leading/trailing-zero windows. This is the fallback that stays
//     lossless for every bit pattern — NaN payloads, infinities,
//     denormals and negative zero included.
//
// The repeat modes are probed first with one scan that computes their
// exact encoded sizes; either is chosen only when it beats one byte
// per value, a bar the fixed/XOR modes never get near on real meter
// blocks, so the selection is deterministic and never inflates a block
// that the dense modes handle well. All four modes decode to
// bit-identical float64s (run-length and dictionary store raw bit
// patterns verbatim); the segment pager and every analytic above it
// rely on that.
//
// Timestamps compress as delta-of-delta with run-length encoding: a
// regular hourly block costs a handful of bytes regardless of length,
// while irregular gaps degrade gracefully to one varint pair per
// distinct second difference.
package colcodec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// Value payload modes (byte 0 after the count varint).
const (
	modeFixed = 0
	modeXOR   = 1
	modeRLE   = 2
	modeDict  = 3
)

// maxDict caps the dictionary mode's table size. 64 entries keep the
// first-appearance lookup a short linear scan at encode time and the
// decode table a small stack array, while covering every realistic
// repetitive block (tariff steps, imputation constants, sentinel
// mixes); anything richer is better served by fixed/XOR anyway.
const maxDict = 64

// maxFixedScale caps the decimal scaling exponent probed by the
// fixed-point mode: 10^8 resolves anything the repo's CSV formatter
// ('g', 6 significant digits) can emit for meter-sized magnitudes.
const maxFixedScale = 8

// deltaBatch is the fixed-point mini-batch size: one width byte per
// batch amortizes to ~0.06 bits/value while keeping a single outlier
// from widening more than 128 deltas.
const deltaBatch = 128

var pow10 = [maxFixedScale + 1]float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// negZeroBits is the IEEE-754 bit pattern of -0.0.
const negZeroBits = uint64(1) << 63

// ErrCorrupt reports a malformed or truncated payload.
var ErrCorrupt = errors.New("colcodec: corrupt payload")

// Summary carries the per-block statistics stored in block headers.
// Min and Max are first-attainer extrema over the non-NaN values using
// IEEE < and > — exactly the scan stats.MinMax performs — so combining
// block summaries of a NaN-free series reproduces the full-series scan
// bit for bit (including which of -0/+0 wins). Sum and SumSq cover the
// non-NaN values in block order. When every value is NaN (or the block
// is empty) Min and Max are NaN and the sums are zero.
type Summary struct {
	Count int
	NaNs  int
	Min   float64
	Max   float64
	Sum   float64
	SumSq float64
}

// Summarize computes a block summary in one pass.
func Summarize(vals []float64) Summary {
	s := Summary{Count: len(vals), Min: math.NaN(), Max: math.NaN()}
	seen := false
	for _, v := range vals {
		if math.IsNaN(v) {
			s.NaNs++
			continue
		}
		if !seen {
			s.Min, s.Max = v, v
			seen = true
		} else {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
		}
		s.Sum += v
		s.SumSq += v * v
	}
	return s
}

// zigzag folds signed deltas into unsigned space, small magnitudes
// first.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encoder carries reusable scratch for block encoding; the zero value
// is ready to use. It is not safe for concurrent use.
type Encoder struct {
	ints []int64
	zz   []uint64
}

// AppendValues appends the encoded form of vals to dst and returns the
// extended slice. The payload is self-delimiting and decodes with
// DecodeValues to bit-identical float64s.
func (e *Encoder) AppendValues(dst []byte, vals []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	if mode, ok := repeatMode(vals); ok {
		if mode == modeRLE {
			return appendRLE(dst, vals)
		}
		return e.appendDict(dst, vals)
	}
	if scale, ok := e.fixedScale(vals); ok {
		return e.appendFixed(dst, scale)
	}
	return appendXOR(dst, vals)
}

// uvarintLen is the encoded size of u as a uvarint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// repeatMode scans the block once, computing the exact encoded sizes
// of the run-length and dictionary modes, and picks the smaller when
// it beats one byte per value — a bar that guarantees the repeat mode
// is a clear win over what fixed/XOR would produce. The scan is bit-
// pattern based so NaN payloads and signed zeros count as themselves.
func repeatMode(vals []float64) (byte, bool) {
	var dict [maxDict]uint64
	d := 0
	rleBytes := 1 // mode byte
	run := 0
	var prev uint64
	for i, v := range vals {
		b := math.Float64bits(v)
		if i == 0 || b != prev {
			if i > 0 {
				rleBytes += 8 + uvarintLen(uint64(run))
			}
			prev, run = b, 1
			if d <= maxDict {
				k := 0
				for k < d && dict[k] != b {
					k++
				}
				if k == d {
					if d == maxDict {
						d = maxDict + 1 // overflow: dictionary mode is out
					} else {
						dict[d] = b
						d++
					}
				}
			}
		} else {
			run++
		}
	}
	rleBytes += 8 + uvarintLen(uint64(run))
	best, mode := rleBytes, byte(modeRLE)
	if d <= maxDict {
		w := bits.Len(uint(d - 1))
		if dictBytes := 2 + 8*d + (len(vals)*w+7)/8; dictBytes < best {
			best, mode = dictBytes, modeDict
		}
	}
	if best >= len(vals) {
		return 0, false
	}
	return mode, true
}

// appendRLE emits (raw 8-byte bit pattern, uvarint run length) pairs;
// the runs sum exactly to the block count, which delimits the payload.
func appendRLE(dst []byte, vals []float64) []byte {
	dst = append(dst, modeRLE)
	i := 0
	for i < len(vals) {
		b := math.Float64bits(vals[i])
		run := 1
		for i+run < len(vals) && math.Float64bits(vals[i+run]) == b {
			run++
		}
		dst = binary.LittleEndian.AppendUint64(dst, b)
		dst = binary.AppendUvarint(dst, uint64(run))
		i += run
	}
	return dst
}

// appendDict emits the table size, the raw bit patterns in first-
// appearance order, then every value as a ceil(log2(d))-bit index.
// The caller (repeatMode) guarantees 1 <= d <= maxDict.
func (e *Encoder) appendDict(dst []byte, vals []float64) []byte {
	var dict [maxDict]uint64
	d := 0
	if cap(e.zz) < len(vals) {
		e.zz = make([]uint64, len(vals))
	}
	idx := e.zz[:len(vals)]
	for i, v := range vals {
		b := math.Float64bits(v)
		k := 0
		for k < d && dict[k] != b {
			k++
		}
		if k == d {
			dict[d] = b
			d++
		}
		idx[i] = uint64(k)
	}
	dst = append(dst, modeDict, byte(d))
	for k := 0; k < d; k++ {
		dst = binary.LittleEndian.AppendUint64(dst, dict[k])
	}
	return appendPacked(dst, idx, uint(bits.Len(uint(d-1))))
}

// fixedScale probes for the smallest decimal scale at which every value
// round-trips bit-exactly through round(v*10^s)/10^s, filling e.ints
// with the scaled integers on success. Success at scale s implies
// success at any larger scale (both sides are correctly-rounded forms
// of the same rational), so a single escalating pass finds the minimum.
func (e *Encoder) fixedScale(vals []float64) (int, bool) {
	scale := 0
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
		if math.Float64bits(v) == negZeroBits {
			// int64(-0.0) is +0: the sign bit would not survive the
			// integer round trip.
			return 0, false
		}
		for {
			p := pow10[scale]
			scaled := math.Round(v * p)
			if math.Abs(scaled) >= 1<<51 {
				return 0, false
			}
			if math.Float64bits(scaled/p) == math.Float64bits(v) {
				break
			}
			if scale == maxFixedScale {
				return 0, false
			}
			scale++
		}
	}
	if cap(e.ints) < len(vals) {
		e.ints = make([]int64, len(vals))
	}
	e.ints = e.ints[:len(vals)]
	p := pow10[scale]
	for i, v := range vals {
		e.ints[i] = int64(math.Round(v * p))
	}
	return scale, true
}

func (e *Encoder) appendFixed(dst []byte, scale int) []byte {
	ints := e.ints
	dst = append(dst, modeFixed, byte(scale))
	dst = binary.AppendUvarint(dst, zigzag(ints[0]))
	if len(ints) == 1 {
		return dst
	}
	if cap(e.zz) < len(ints)-1 {
		e.zz = make([]uint64, len(ints)-1)
	}
	zz := e.zz[:len(ints)-1]
	for i := 1; i < len(ints); i++ {
		zz[i-1] = zigzag(ints[i] - ints[i-1])
	}
	for off := 0; off < len(zz); off += deltaBatch {
		end := off + deltaBatch
		if end > len(zz) {
			end = len(zz)
		}
		batch := zz[off:end]
		w := uint(0)
		for _, u := range batch {
			if b := uint(bits.Len64(u)); b > w {
				w = b
			}
		}
		dst = append(dst, byte(w))
		dst = appendPacked(dst, batch, w)
	}
	return dst
}

// appendPacked packs each value's low w bits LSB-first into dst.
func appendPacked(dst []byte, zz []uint64, w uint) []byte {
	if w == 0 {
		return dst
	}
	var acc uint64
	var n uint
	for _, v := range zz {
		acc |= v << n
		if fit := 64 - n; w >= fit {
			dst = append(dst, byte(acc), byte(acc>>8), byte(acc>>16), byte(acc>>24),
				byte(acc>>32), byte(acc>>40), byte(acc>>48), byte(acc>>56))
			acc = v >> fit
			n = w - fit
		} else {
			n += w
			for n >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				n -= 8
			}
		}
	}
	for n > 0 {
		dst = append(dst, byte(acc))
		acc >>= 8
		if n >= 8 {
			n -= 8
		} else {
			n = 0
		}
	}
	return dst
}

func appendXOR(dst []byte, vals []float64) []byte {
	dst = append(dst, modeXOR)
	bw := bitWriter{b: dst}
	prev := math.Float64bits(vals[0])
	bw.write(prev, 64)
	var pLead, pTrail, pSig uint
	havePrev := false
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := prev ^ cur
		prev = cur
		if x == 0 {
			bw.write(0, 1)
			continue
		}
		bw.write(1, 1)
		lead := uint(bits.LeadingZeros64(x))
		trail := uint(bits.TrailingZeros64(x))
		sig := 64 - lead - trail
		if havePrev && lead >= pLead && trail >= pTrail {
			bw.write(0, 1)
			bw.write(x>>pTrail, pSig)
			continue
		}
		bw.write(1, 1)
		bw.write(uint64(lead), 6)
		bw.write(uint64(sig-1), 6)
		bw.write(x>>trail, sig)
		pLead, pTrail, pSig = lead, trail, sig
		havePrev = true
	}
	return bw.close()
}

// DecodeValues decodes a payload produced by AppendValues. dst is used
// as the output buffer when its capacity suffices (a zero-allocation
// decode); otherwise a fresh slice is allocated. It returns the decoded
// values and the number of payload bytes consumed.
func DecodeValues(payload []byte, dst []float64) ([]float64, int, error) {
	cnt, hn := binary.Uvarint(payload)
	if hn <= 0 || cnt > math.MaxInt32 {
		return nil, 0, ErrCorrupt
	}
	count := int(cnt)
	if count == 0 {
		return dst[:0], hn, nil
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	dst = dst[:count]
	if hn >= len(payload) {
		return nil, 0, ErrCorrupt
	}
	mode := payload[hn]
	body := payload[hn+1:]
	var used int
	var err error
	switch mode {
	case modeFixed:
		used, err = decodeFixed(body, dst)
	case modeXOR:
		used, err = decodeXOR(body, dst)
	case modeRLE:
		used, err = decodeRLE(body, dst)
	case modeDict:
		used, err = decodeDict(body, dst)
	default:
		return nil, 0, ErrCorrupt
	}
	if err != nil {
		return nil, 0, err
	}
	return dst, hn + 1 + used, nil
}

// DecodeExact decodes a payload that must hold exactly len(dst) values
// into dst. A payload whose count varint says anything else is refused
// before a byte of it is decoded or allocated for: a store knows how
// many rows a block holds and must not let the block's own bytes say
// otherwise (a seven-byte payload can promise 2^31-1 values).
func DecodeExact(payload []byte, dst []float64) error {
	cnt, n := binary.Uvarint(payload)
	if n <= 0 || cnt != uint64(len(dst)) {
		return ErrCorrupt
	}
	_, _, err := DecodeValues(payload, dst[:0:len(dst)])
	return err
}

func decodeFixed(b []byte, dst []float64) (int, error) {
	if len(b) < 1 {
		return 0, ErrCorrupt
	}
	scale := int(b[0])
	if scale > maxFixedScale {
		return 0, ErrCorrupt
	}
	p := pow10[scale]
	off := 1
	u, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	off += n
	cur := unzigzag(u)
	dst[0] = float64(cur) / p
	i := 1
	for i < len(dst) {
		if off >= len(b) {
			return 0, ErrCorrupt
		}
		w := uint(b[off])
		off++
		end := i + deltaBatch
		if end > len(dst) {
			end = len(dst)
		}
		if w > 64 {
			return 0, ErrCorrupt
		}
		if w == 0 {
			v := float64(cur) / p
			for ; i < end; i++ {
				dst[i] = v
			}
			continue
		}
		// One bounds check per mini-batch, before anything of it is
		// written: the batch is byte-aligned and ceil(m*w/8) bytes long.
		need := ((end-i)*int(w) + 7) / 8
		if len(b)-off < need {
			return 0, ErrCorrupt
		}
		var err error
		if cur, err = unpackDeltas(b[off:], dst[i:end], w, cur, p); err != nil {
			return 0, err
		}
		off += need
		i = end
	}
	return off, nil
}

// unpackDeltas decodes len(dst) w-bit zigzag deltas packed LSB-first at
// the start of body (1 <= w <= 64), accumulating from cur, and returns
// the last integer. The caller has checked that body holds the batch.
// Widths up to 56 bits take each delta with one unaligned little-endian
// 64-bit load, a shift and a mask (a delta starts at most 7 bits into
// its first byte, so 56 bits always fit the word) for as long as eight
// readable bytes remain at the delta's first byte; body runs on past
// the batch to the end of the payload, so that is every delta but the
// last few of a payload. Those, and wider deltas, go through bitReader.
func unpackDeltas(body []byte, dst []float64, w uint, cur int64, p float64) (int64, error) {
	j := 0
	if w <= 56 && len(body) >= 8 {
		// Delta j starts at byte j*w/8; the load needs that to be at
		// most len(body)-8.
		fast := (8*(len(body)-7)-1)/int(w) + 1
		if fast > len(dst) {
			fast = len(dst)
		}
		mask := uint64(1)<<w - 1
		bit := uint(0)
		for ; j < fast; j++ {
			u := binary.LittleEndian.Uint64(body[bit>>3:]) >> (bit & 7) & mask
			cur += unzigzag(u)
			dst[j] = float64(cur) / p
			bit += w
		}
	}
	if j == len(dst) {
		return cur, nil
	}
	bit := uint(j) * w
	br := bitReader{b: body[bit>>3:]}
	if _, err := br.read32(bit & 7); err != nil {
		return 0, err
	}
	for ; j < len(dst); j++ {
		u, err := br.read(w)
		if err != nil {
			return 0, err
		}
		cur += unzigzag(u)
		dst[j] = float64(cur) / p
	}
	return cur, nil
}

func decodeXOR(b []byte, dst []float64) (int, error) {
	br := bitReader{b: b}
	prev, err := br.read(64)
	if err != nil {
		return 0, err
	}
	dst[0] = math.Float64frombits(prev)
	var pLead, pTrail, pSig uint
	havePrev := false
	for i := 1; i < len(dst); i++ {
		ctl, err := br.read(1)
		if err != nil {
			return 0, err
		}
		if ctl == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		reuse, err := br.read(1)
		if err != nil {
			return 0, err
		}
		var lead, sig uint
		if reuse == 0 {
			if !havePrev {
				return 0, ErrCorrupt
			}
			lead, sig = pLead, pSig
			// The window low bound is pTrail; meaningful bits shift back
			// by it below.
			m, err := br.read(sig)
			if err != nil {
				return 0, err
			}
			prev ^= m << pTrail
			dst[i] = math.Float64frombits(prev)
			continue
		}
		l, err := br.read(6)
		if err != nil {
			return 0, err
		}
		s, err := br.read(6)
		if err != nil {
			return 0, err
		}
		lead = uint(l)
		sig = uint(s) + 1
		if lead+sig > 64 {
			return 0, ErrCorrupt
		}
		trail := 64 - lead - sig
		m, err := br.read(sig)
		if err != nil {
			return 0, err
		}
		prev ^= m << trail
		dst[i] = math.Float64frombits(prev)
		pLead, pTrail, pSig = lead, trail, sig
		havePrev = true
	}
	return br.consumed(), nil
}

func decodeRLE(b []byte, dst []float64) (int, error) {
	off, i := 0, 0
	for i < len(dst) {
		if off+8 > len(b) {
			return 0, ErrCorrupt
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		r, n := binary.Uvarint(b[off:])
		if n <= 0 || r == 0 || r > uint64(len(dst)-i) {
			return 0, ErrCorrupt
		}
		off += n
		for j := uint64(0); j < r; j++ {
			dst[i] = v
			i++
		}
	}
	return off, nil
}

func decodeDict(b []byte, dst []float64) (int, error) {
	if len(b) < 1 {
		return 0, ErrCorrupt
	}
	d := int(b[0])
	if d == 0 || d > maxDict || len(b) < 1+8*d {
		return 0, ErrCorrupt
	}
	var dict [maxDict]float64
	off := 1
	for k := 0; k < d; k++ {
		dict[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	w := uint(bits.Len(uint(d - 1)))
	if w == 0 {
		for i := range dst {
			dst[i] = dict[0]
		}
		return off, nil
	}
	br := bitReader{b: b[off:]}
	for i := range dst {
		u, err := br.read(w)
		if err != nil {
			return 0, err
		}
		if u >= uint64(d) {
			return 0, ErrCorrupt
		}
		dst[i] = dict[u]
	}
	return off + br.consumed(), nil
}

// AppendTimestamps appends the delta-of-delta + run-length encoding of
// ts (any int64 clock: hour indexes, epoch seconds) to dst.
func AppendTimestamps(dst []byte, ts []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	if len(ts) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, zigzag(ts[0]))
	if len(ts) == 1 {
		return dst
	}
	prevDelta := ts[1] - ts[0]
	dst = binary.AppendUvarint(dst, zigzag(prevDelta))
	// Run-length over equal delta-of-deltas: a regular series is one
	// (0, n-2) pair.
	i := 2
	for i < len(ts) {
		delta := ts[i] - ts[i-1]
		dod := delta - prevDelta
		run := 1
		for i+run < len(ts) && ts[i+run]-ts[i+run-1] == delta {
			run++
		}
		dst = binary.AppendUvarint(dst, zigzag(dod))
		dst = binary.AppendUvarint(dst, uint64(run))
		prevDelta = delta
		i += run
	}
	return dst
}

// DecodeTimestamps decodes a payload produced by AppendTimestamps,
// reusing dst when its capacity suffices. It returns the timestamps and
// the number of payload bytes consumed.
func DecodeTimestamps(payload []byte, dst []int64) ([]int64, int, error) {
	cnt, off := binary.Uvarint(payload)
	if off <= 0 || cnt > math.MaxInt32 {
		return nil, 0, ErrCorrupt
	}
	count := int(cnt)
	if count == 0 {
		return dst[:0], off, nil
	}
	if cap(dst) < count {
		dst = make([]int64, count)
	}
	dst = dst[:count]
	u, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return nil, 0, ErrCorrupt
	}
	off += n
	dst[0] = unzigzag(u)
	if count == 1 {
		return dst, off, nil
	}
	u, n = binary.Uvarint(payload[off:])
	if n <= 0 {
		return nil, 0, ErrCorrupt
	}
	off += n
	delta := unzigzag(u)
	dst[1] = dst[0] + delta
	i := 2
	for i < count {
		u, n = binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, 0, ErrCorrupt
		}
		off += n
		dod := unzigzag(u)
		r, n := binary.Uvarint(payload[off:])
		if n <= 0 || r == 0 || r > uint64(count-i) {
			return nil, 0, ErrCorrupt
		}
		off += n
		delta += dod
		for j := uint64(0); j < r; j++ {
			dst[i] = dst[i-1] + delta
			i++
		}
	}
	return dst, off, nil
}

// bitWriter packs bits LSB-first into a byte slice.
type bitWriter struct {
	b   []byte
	acc uint64
	n   uint
}

func (w *bitWriter) write(v uint64, nbits uint) {
	if nbits == 0 {
		return
	}
	if nbits < 64 {
		v &= 1<<nbits - 1
	}
	w.acc |= v << w.n
	if fit := 64 - w.n; nbits >= fit {
		w.b = append(w.b, byte(w.acc), byte(w.acc>>8), byte(w.acc>>16), byte(w.acc>>24),
			byte(w.acc>>32), byte(w.acc>>40), byte(w.acc>>48), byte(w.acc>>56))
		w.acc = v >> fit
		w.n = nbits - fit
	} else {
		w.n += nbits
		for w.n >= 8 {
			w.b = append(w.b, byte(w.acc))
			w.acc >>= 8
			w.n -= 8
		}
	}
}

// close flushes the partial tail byte(s) and returns the buffer.
func (w *bitWriter) close() []byte {
	for w.n > 0 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
		if w.n >= 8 {
			w.n -= 8
		} else {
			w.n = 0
		}
	}
	return w.b
}

// bitReader mirrors bitWriter: LSB-first reads over a byte slice.
type bitReader struct {
	b   []byte
	i   int
	acc uint64
	n   uint
}

// read returns the next nbits bits (nbits <= 64).
func (r *bitReader) read(nbits uint) (uint64, error) {
	if nbits > 32 {
		lo, err := r.read32(32)
		if err != nil {
			return 0, err
		}
		hi, err := r.read32(nbits - 32)
		if err != nil {
			return 0, err
		}
		return lo | hi<<32, nil
	}
	return r.read32(nbits)
}

func (r *bitReader) read32(nbits uint) (uint64, error) {
	for r.n < nbits {
		if r.i >= len(r.b) {
			return 0, ErrCorrupt
		}
		r.acc |= uint64(r.b[r.i]) << r.n
		r.i++
		r.n += 8
	}
	v := r.acc & (1<<nbits - 1)
	r.acc >>= nbits
	r.n -= nbits
	return v, nil
}

// consumed returns the number of whole bytes the reader has advanced
// past (any partially consumed byte counts as consumed).
func (r *bitReader) consumed() int { return r.i }
