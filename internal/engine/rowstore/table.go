package rowstore

import (
	"fmt"
	"math"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Layout selects the physical schema (paper Figure 9).
type Layout int

const (
	// LayoutRows stores one reading per tuple:
	// (household, hour, temperature, consumption) — the paper's Table 1.
	LayoutRows Layout = iota
	// LayoutArrays stores one row per consumer with consumption and
	// temperature arrays — the paper's Table 2. Arrays larger than a
	// page are chunked across tuples (a TOAST-like scheme), keyed by
	// (household, chunk).
	LayoutArrays
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutRows:
		return "row-per-reading"
	case LayoutArrays:
		return "array-per-consumer"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// rowTupleSize is the encoded size of a LayoutRows tuple.
const rowTupleSize = 8 + 4 + 8 + 8

// chunkHours is the number of hours per LayoutArrays chunk; each chunk
// carries both consumption and temperature, so the tuple stays within a
// page: 16 + 480*16 = 7696 bytes.
const chunkHours = 480

// encodeRowTuple encodes one reading row.
func encodeRowTuple(buf []byte, id timeseries.ID, hour int, temp, cons float64) []byte {
	buf = buf[:0]
	var tmp [rowTupleSize]byte
	putU64(tmp[:], 0, uint64(id))
	putU32(tmp[:], 8, uint32(hour))
	putU64(tmp[:], 12, math.Float64bits(temp))
	putU64(tmp[:], 20, math.Float64bits(cons))
	return append(buf, tmp[:]...)
}

// decodeRowTuple decodes a reading row.
func decodeRowTuple(t []byte) (id timeseries.ID, hour int, temp, cons float64, err error) {
	if len(t) != rowTupleSize {
		return 0, 0, 0, 0, fmt.Errorf("rowstore: row tuple of %d bytes", len(t))
	}
	id = timeseries.ID(getU64(t, 0))
	hour = int(getU32(t, 8))
	temp = math.Float64frombits(getU64(t, 12))
	cons = math.Float64frombits(getU64(t, 20))
	return id, hour, temp, cons, nil
}

// encodeArrayChunk encodes one LayoutArrays chunk tuple:
// household(8) startHour(4) count(4) cons[count] temp[count].
func encodeArrayChunk(buf []byte, id timeseries.ID, startHour int, cons, temp []float64) ([]byte, error) {
	if len(cons) != len(temp) {
		return nil, fmt.Errorf("rowstore: chunk arrays differ: %d vs %d", len(cons), len(temp))
	}
	n := len(cons)
	size := 16 + n*16
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	putU64(buf, 0, uint64(id))
	putU32(buf, 8, uint32(startHour))
	putU32(buf, 12, uint32(n))
	for i := 0; i < n; i++ {
		putU64(buf, 16+i*8, math.Float64bits(cons[i]))
		putU64(buf, 16+(n+i)*8, math.Float64bits(temp[i]))
	}
	return buf, nil
}

// decodeArrayChunk decodes a chunk tuple into cons and, when temp is
// non-nil, temp at the encoded start hour (the slices must already be
// sized).
func decodeArrayChunk(t []byte, cons, temp []float64) error {
	_, start, n, err := chunkBounds(t)
	if err != nil {
		return err
	}
	if len(t) != 16+n*16 {
		return fmt.Errorf("rowstore: chunk tuple size %d, want %d", len(t), 16+n*16)
	}
	if start+n > len(cons) || (temp != nil && start+n > len(temp)) {
		return fmt.Errorf("rowstore: chunk [%d, %d) outside series of %d", start, start+n, len(cons))
	}
	for i := 0; i < n; i++ {
		cons[start+i] = math.Float64frombits(getU64(t, 16+i*8))
	}
	for i := 0; temp != nil && i < n; i++ {
		temp[start+i] = math.Float64frombits(getU64(t, 16+(n+i)*8))
	}
	return nil
}

// table is a stored relation: a heap file plus a B+tree on the
// composite key.
type table struct {
	layout Layout
	heap   *heapFile
	index  *btree
	// seriesLen is the (uniform) number of readings per consumer.
	seriesLen int
	// consumers is the number of distinct households.
	consumers int
}

// insertSeries stores one consumer's data under the table's layout.
// Temperature is stored alongside consumption, as in both of the
// paper's schemas.
func (tb *table) insertSeries(s *timeseries.Series, temp *timeseries.Temperature) error {
	if s.ID <= 0 {
		return fmt.Errorf("rowstore: household id must be positive, got %d", s.ID)
	}
	if len(s.Readings) != len(temp.Values) {
		return fmt.Errorf("rowstore: consumer %d has %d readings but %d temperatures",
			s.ID, len(s.Readings), len(temp.Values))
	}
	if tb.seriesLen == 0 {
		tb.seriesLen = len(s.Readings)
	} else if tb.seriesLen != len(s.Readings) {
		return fmt.Errorf("rowstore: consumer %d length %d differs from table's %d",
			s.ID, len(s.Readings), tb.seriesLen)
	}
	switch tb.layout {
	case LayoutRows:
		var buf []byte
		for h, c := range s.Readings {
			buf = encodeRowTuple(buf, s.ID, h, temp.Values[h], c)
			tid, err := tb.heap.insert(buf)
			if err != nil {
				return err
			}
			if err := tb.index.insert(key{ID: uint64(s.ID), Seq: uint64(h)}, tid); err != nil {
				return err
			}
		}
	case LayoutArrays:
		if err := tb.insertChunks(s.ID, 0, 0, s.Readings, temp.Values); err != nil {
			return err
		}
	default:
		return fmt.Errorf("rowstore: unknown layout %v", tb.layout)
	}
	tb.consumers++
	return nil
}

// insertChunks stores a run of readings as array chunks starting at the
// given hour offset and chunk sequence number.
func (tb *table) insertChunks(id timeseries.ID, firstSeq uint64, hourOffset int, cons, temps []float64) error {
	var buf []byte
	seq := firstSeq
	for start := 0; start < len(cons); start += chunkHours {
		end := start + chunkHours
		if end > len(cons) {
			end = len(cons)
		}
		var err error
		buf, err = encodeArrayChunk(buf, id, hourOffset+start, cons[start:end], temps[start:end])
		if err != nil {
			return err
		}
		tid, err := tb.heap.insert(buf)
		if err != nil {
			return err
		}
		if err := tb.index.insert(key{ID: uint64(id), Seq: seq}, tid); err != nil {
			return err
		}
		seq++
	}
	return nil
}

// maxSeq returns the highest stored sequence number for a household and
// whether any entry exists.
func (tb *table) maxSeq(id timeseries.ID) (uint64, bool, error) {
	var last uint64
	found := false
	err := tb.index.scanRange(key{ID: uint64(id)}, key{ID: uint64(id) + 1}, func(k key, _ TID) error {
		last = k.Seq
		found = true
		return nil
	})
	return last, found, err
}

// appendReadings extends one household's series with new hourly data
// (the benchmark's future-work "add a day's worth of new points"). The
// caller must extend every household identically and then bump
// tb.seriesLen once via setSeriesLen.
func (tb *table) appendReadings(id timeseries.ID, cons, temps []float64) error {
	if len(cons) != len(temps) {
		return fmt.Errorf("rowstore: append arrays differ: %d vs %d", len(cons), len(temps))
	}
	switch tb.layout {
	case LayoutRows:
		var buf []byte
		for i, c := range cons {
			h := tb.seriesLen + i
			buf = encodeRowTuple(buf, id, h, temps[i], c)
			tid, err := tb.heap.insert(buf)
			if err != nil {
				return err
			}
			if err := tb.index.insert(key{ID: uint64(id), Seq: uint64(h)}, tid); err != nil {
				return err
			}
		}
		return nil
	case LayoutArrays:
		last, found, err := tb.maxSeq(id)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("rowstore: household %d not found", id)
		}
		return tb.insertChunks(id, last+1, tb.seriesLen, cons, temps)
	default:
		return fmt.Errorf("rowstore: unknown layout %v", tb.layout)
	}
}

// setSeriesLen records the new uniform series length after appends.
func (tb *table) setSeriesLen(n int) { tb.seriesLen = n }

// readSeriesInto is the one read path: it walks one household's leaf
// entries and decodes each tuple straight out of its pinned heap frame
// into cons (the first len(cons) hours) and, when temp is non-nil, the
// temperature column beside it. Consecutive TIDs mostly share a heap
// page, so the page of the previous TID stays pinned until the TID's
// page changes: one pool lookup per heap page, no copy and no
// allocation per tuple. It reads the published prefix or a snapshot's
// captured length alike: tuples at or beyond hour len(cons) end the
// scan, because the index orders a household's tuples by sequence.
// Callers hold the table latch, shared or exclusive.
func (tb *table) readSeriesInto(id timeseries.ID, cons, temp []float64) error {
	bp := tb.heap.bp
	page, i, err := tb.index.seekLeaf(key{ID: uint64(id)})
	var hp *frame // heap page of the previous TID
	found, done := false, false
	for step := 1; err == nil && !done && page != InvalidPage; step++ {
		var lf *frame
		lf, err = bp.fetch(page)
		if err != nil {
			break
		}
		leaf := lf.data[:]
		var n int
		n, err = leafEntries(leaf, step, bp.pf.nPages)
		for ; i < n && err == nil && !done; i++ {
			k, tid := leafKey(leaf, i), leafVal(leaf, i)
			if k.ID != uint64(id) {
				done = true
				break
			}
			if hp == nil || hp.id != tid.Page {
				if hp != nil {
					bp.unpin(hp, false)
				}
				hp, err = bp.fetch(tid.Page)
				if err != nil {
					break
				}
			}
			found = true
			done, err = tb.decodeTuple(hp.data[:], k, tid, cons, temp)
		}
		page, i = leafNext(leaf), 0
		bp.unpin(lf, false)
	}
	if hp != nil {
		bp.unpin(hp, false)
	}
	if err == nil && !found {
		err = fmt.Errorf("rowstore: household %d not found", id)
	}
	return err
}

// decodeTuple decodes the tuple at tid, a view into its pinned heap
// page, into cons/temp, checking that it belongs to the household the
// index entry k names. done reports a tuple at or beyond hour
// len(cons). An array chunk straddling that hour is an invariant breach
// — chunks never span an append batch, and prefixes are only ever cut at
// batch boundaries.
func (tb *table) decodeTuple(page []byte, k key, tid TID, cons, temp []float64) (done bool, err error) {
	t, err := heapPageTuple(page, tid.Slot)
	if err != nil {
		return false, err
	}
	n := len(cons)
	switch tb.layout {
	case LayoutRows:
		owner, hour, tv, cv, err := decodeRowTuple(t)
		if err != nil || uint64(owner) != k.ID {
			return false, tupleErr(err, k, tid, owner)
		}
		if hour >= n {
			return true, nil
		}
		cons[hour] = cv
		if temp != nil {
			temp[hour] = tv
		}
	case LayoutArrays:
		owner, start, count, err := chunkBounds(t)
		if err != nil || uint64(owner) != k.ID {
			return false, tupleErr(err, k, tid, owner)
		}
		if start >= n {
			return true, nil
		}
		if start+count > n {
			return false, fmt.Errorf("rowstore: prefix of %d hours cuts chunk [%d, %d)", n, start, start+count)
		}
		return false, decodeArrayChunk(t, cons, temp)
	}
	return false, nil
}

// tupleErr is a tuple's decode error or, without one, the error for an
// index entry whose TID addresses another household's tuple.
func tupleErr(err error, k key, tid TID, owner timeseries.ID) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("rowstore: index entry (%d, %d) points at tuple (%d, %d) of household %d",
		k.ID, k.Seq, tid.Page, tid.Slot, owner)
}

// chunkBounds decodes the household and the [start, start+count) hour
// range from a LayoutArrays chunk tuple header.
func chunkBounds(t []byte) (id timeseries.ID, start, count int, err error) {
	if len(t) < 16 {
		return 0, 0, 0, fmt.Errorf("rowstore: chunk tuple of %d bytes", len(t))
	}
	return timeseries.ID(getU64(t, 0)), int(getU32(t, 8)), int(getU32(t, 12)), nil
}

// distinctIDs returns every stored household ID in ascending order by
// hopping across the index (seek to (id+1, 0) after each hit).
func (tb *table) distinctIDs() ([]timeseries.ID, error) {
	var ids []timeseries.ID
	next := key{ID: 0, Seq: 0}
	for {
		var got *key
		err := tb.index.scanRange(next, key{ID: math.MaxUint64, Seq: math.MaxUint64},
			func(k key, _ TID) error {
				got = &k
				return errStopScan
			})
		if err != nil && err != errStopScan {
			return nil, err
		}
		if got == nil {
			return ids, nil
		}
		if got.ID < next.ID {
			// A corrupt leaf's keys are out of order; hopping on would
			// revisit it forever.
			return nil, fmt.Errorf("rowstore: corrupt index: household %d after %d", got.ID, next.ID-1)
		}
		ids = append(ids, timeseries.ID(got.ID))
		if got.ID == math.MaxUint64 {
			return ids, nil
		}
		next = key{ID: got.ID + 1, Seq: 0}
	}
}

// errStopScan terminates a scan early; it never escapes this package's
// public API.
var errStopScan = fmt.Errorf("rowstore: stop scan")
