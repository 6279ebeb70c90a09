package rowstore

import (
	"fmt"
	"math"
	"sort"

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

// table is a stored relation: a heap file plus a B+tree on the
// composite key.
type table struct {
	layout Layout
	heap   *heapFile
	index  *btree
	// seriesLen is the (uniform) number of readings per consumer that
	// Load stored: the published prefix, which nothing else changes.
	seriesLen int
	// consumers is the number of distinct households.
	consumers int
}

// insertSeries stores one consumer's data in the heap under the table's
// layout, through the load's heapLoader, as the bulk load's COPY step:
// the index is built afterwards, from the heap (buildIndex). Temperature
// is stored alongside consumption, as in both of the paper's schemas.
func (tb *table) insertSeries(l *heapLoader, s *timeseries.Series, temp *timeseries.Temperature) error {
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
			if err := l.insert(buf); err != nil {
				return err
			}
		}
	case LayoutArrays:
		if err := eachChunk(s.ID, 0, s.Readings, temp.Values, l.insert); err != nil {
			return err
		}
	default:
		return fmt.Errorf("rowstore: unknown layout %v", tb.layout)
	}
	tb.consumers++
	return nil
}

// buildIndex builds the table's B+tree from one scan of its heap, the
// way CREATE INDEX after COPY does: a row tuple goes in under its
// household and hour, an array chunk under its household and its rank
// among the household's chunks. The load stores each household's tuples
// as one run, so the keys arrive in the order the load stored them,
// and the tree's pages follow the heap's in the file. Loaded in
// household order, every key sorts after the last, so btree.insert
// appends it to the rightmost leaf without a descent, and fills the
// leaves left to right as PostgreSQL's sorted CREATE INDEX does.
func (tb *table) buildIndex() error {
	idx, err := newBTree(tb.heap.bp)
	if err != nil {
		return err
	}
	tb.index = idx
	var owner, rank uint64
	return tb.heap.scan(func(tid TID, t []byte) error {
		k := key{ID: getU64(t, 0), Seq: uint64(getU32(t, 8))}
		if tb.layout == LayoutArrays {
			if k.ID != owner {
				owner, rank = k.ID, 0
			} else {
				rank++
			}
			k.Seq = rank
		}
		return idx.insert(k, tid)
	})
}

// eachChunk encodes a run of readings starting at the given hour offset
// as array chunks of at most chunkHours, and hands each to store.
func eachChunk(id timeseries.ID, hourOffset int, cons, temps []float64, store func(chunk []byte) error) error {
	var buf []byte
	for start := 0; start < len(cons); start += chunkHours {
		end := min(start+chunkHours, len(cons))
		var err error
		buf, err = encodeArrayChunk(buf, id, hourOffset+start, cons[start:end], temps[start:end])
		if err != nil {
			return err
		}
		if err := store(buf); err != nil {
			return err
		}
	}
	return nil
}

// readSeriesInto is the one read path. It reads one household's first
// len(cons) hours into cons and, when temp is non-nil (of cons' length),
// the temperature column beside it, in two phases:
//
//   - The heap walk. One descent finds the household's first entry, and
//     from its TID the read follows the heap, slot after slot and then
//     along the heap chain, decoding each tuple that is the household's
//     next hour, or in the array layout its next chunk (walk). Load
//     stores a household's tuples as one run of the heap, so a loaded
//     household reads whole here, without its leaves.
//   - The index. Where the run breaks first, at hours live Append added
//     after the load or at a tuple that fails a check, a second descent
//     at the first hour not read finishes through the leaf chain, a
//     heap page's run of entries at a time (scan).
//
// So a read descends at most twice, and which phase decodes a tuple
// depends only on where it is stored. The heap page of the last tuple
// stays pinned until the next tuple lies on another page: one pool
// lookup per heap page, no copy and no allocation per tuple. It reads
// the published prefix or a snapshot's captured length alike. It writes
// every hour of cons, zero where the household stores none, so cons
// need not be zeroed; of temp it writes only the hours that are stored.
// Given a cursor's ring, the heap walk reads through it; descents and
// the index phase keep the pool, as PostgreSQL's index scans read
// through shared buffers while its bulk-read ring serves sequential
// heap scans: the pages the index phase reads, a live household's
// leaves and heap pages, are the ones every later query reads again.
// Callers hold the table latch, shared or exclusive.
func (tb *table) readSeriesInto(rg *pageRing, id timeseries.ID, cons, temp []float64) error {
	r := seriesRead{bp: tb.heap.bp, rg: rg, id: uint64(id), rows: tb.layout == LayoutRows, cons: cons, temp: temp}
	err := r.read(tb.index)
	if r.hp != nil {
		r.bp.unpin(r.hp, false)
	}
	return err
}

// seriesRead is one household's read in progress.
type seriesRead struct {
	bp   *bufferPool
	rg   *pageRing // the cursor's ring for the heap walk, or nil to read through the pool
	id   uint64
	rows bool
	cons []float64
	temp []float64
	// hp is the pinned heap page of the last tuple read, nil before the
	// first.
	hp *frame
	// hours is the next hour to read, and seq the index sequence of the
	// next tuple: its hour in the row layout, its chunk's rank in the
	// array layout. The walk advances both, and the index phase starts
	// from them.
	hours int
	seq   uint64
}

// read runs the two phases. cons may hold an earlier series (a row a
// cursor took back): the walk writes hours 0 to r.hours-1 in order, so
// when it stops short the rest is cleared before the index phase writes
// the hours stored there, and an hour stored nowhere reads as zero.
func (r *seriesRead) read(index *btree) error {
	k, tid, found, err := index.first(key{ID: r.id})
	if err != nil {
		return err
	}
	if !found || k.ID != r.id {
		return fmt.Errorf("rowstore: household %d not found", r.id)
	}
	if err := r.walk(tid); err != nil || r.hours == len(r.cons) {
		return err
	}
	clear(r.cons[r.hours:])
	return r.scan(index)
}

// fetch pins a heap page, through the ring if there is one.
func (r *seriesRead) fetch(page PageID) (*frame, error) {
	if r.rg != nil {
		return r.rg.fetch(page)
	}
	return r.bp.fetch(page)
}

// pin makes page the pinned heap page.
func (r *seriesRead) pin(page PageID) error {
	if r.hp != nil {
		if r.hp.id == page {
			return nil
		}
		r.bp.unpin(r.hp, false)
		r.hp = nil
	}
	fr, err := r.fetch(page)
	if err != nil {
		return err
	}
	r.hp = fr
	return nil
}

// walk is the heap phase: from the tuple at tid on, it decodes each
// tuple the heap holds next while that tuple is the household's next
// hour or chunk, until cons is full. A tuple that fails a check, a page
// that lies outside the file and the chain's end each end the walk, not
// the read: the index phase goes on from the first hour not read,
// through that hour's own entry, and refuses a damaged tuple there. A
// walk that visits more pages than the file holds is a loop in the
// chain, and an error, as nodeEntries' step check is for the leaf chain.
func (r *seriesRead) walk(tid TID) error {
	pages := r.bp.pf.nPages
	page, slot := tid.Page, int(tid.Slot)
	for step := 1; r.hours < len(r.cons) && page < pages; step++ {
		if step > int(pages) {
			return fmt.Errorf("rowstore: corrupt heap: chain longer than the file's %d pages", pages)
		}
		if err := r.pin(page); err != nil {
			return err
		}
		data := r.hp.data[:]
		var more bool
		if r.rows {
			more = r.walkRows(data, slot)
		} else {
			more = r.walkChunks(data, slot)
		}
		if !more {
			return nil
		}
		page, slot = heapPageNext(data), 0
	}
	return nil
}

// walkRows decodes the row tuples in slots s, s+1, ... of the pinned
// heap page while each is the household's next hour, and reports
// whether it decoded to the page's last slot. Each tuple passes the
// checks decodeRowRun makes, with the hour expected in place of an
// entry's key: its slot is one of the page's and its slot entry lies
// inside the page, the tuple lies inside the page and is a row tuple,
// and it holds the household and the hour, compared as uint64.
func (r *seriesRead) walkRows(page []byte, s int) bool {
	count := int(heapPageSlotCount(page))
	fit := min(count, (PageSize-heapHeaderSize)/slotSize) // slots whose entries lie inside the page
	cons, temp, h := r.cons, r.temp, r.hours
	for ; s < fit && h < len(cons); s, h = s+1, h+1 {
		slot := page[heapHeaderSize+s*slotSize:][:slotSize]
		at, length := int(getU16(slot, 0)), int(getU16(slot, 2))
		if length != rowTupleSize || at+length > PageSize {
			break
		}
		t := page[at : at+rowTupleSize]
		if getU64(t, 0) != r.id || uint64(getU32(t, 8)) != uint64(h) {
			break
		}
		cons[h] = math.Float64frombits(getU64(t, 20))
		if temp != nil {
			temp[h] = math.Float64frombits(getU64(t, 12))
		}
	}
	r.hours, r.seq = h, uint64(h)
	return s == count
}

// walkChunks is walkRows for array chunks: each must pass decodeChunk's
// checks as the household's next chunk, starting where the last ended.
func (r *seriesRead) walkChunks(page []byte, s int) bool {
	count := int(heapPageSlotCount(page))
	for ; s < count && r.hours < len(r.cons); s++ {
		tid := TID{Page: r.hp.id, Slot: uint16(s)}
		end, _, err := decodeChunk(page, key{ID: r.id, Seq: r.seq}, tid, r.hours, r.cons, r.temp)
		if err != nil {
			break
		}
		r.hours, r.seq = end, r.seq+1
	}
	return s == count
}

// scan is the index phase: a descent to the entry (household, seq), and
// from there along the leaf chain, decoding each entry's tuple out of
// its pinned heap page. A row entry at or beyond hour len(cons) ends the
// scan before its page is fetched, because the index orders a
// household's tuples by hour. It reads leaves and heap pages through
// the pool, never the ring.
func (r *seriesRead) scan(index *btree) error {
	r.rg = nil
	pages := r.bp.pf.nPages
	page, i, err := index.seekLeaf(key{ID: r.id, Seq: r.seq})
	done := false
	for step := 1; err == nil && !done && page != InvalidPage; step++ {
		var lf *frame
		lf, err = r.bp.fetch(page)
		if err != nil {
			break
		}
		leaf := lf.data[:]
		var n int
		n, err = leafEntries(leaf, step, pages)
		for i < n && err == nil && !done {
			k, tid := leafKey(leaf, i), leafVal(leaf, i)
			if k.ID != r.id || r.rows && k.Seq >= uint64(len(r.cons)) {
				done = true
				break
			}
			if tid.Page >= pages {
				err = fmt.Errorf("rowstore: index entry (%d, %d) points at page %d of %d", k.ID, k.Seq, tid.Page, pages)
				break
			}
			if err = r.pin(tid.Page); err != nil {
				break
			}
			if r.rows {
				i, done, err = decodeRowRun(leaf[:btreeHeaderSize+n*btreeLeafEntry], i, r.hp, r.cons, r.temp)
			} else {
				r.hours, done, err = decodeChunk(r.hp.data[:], k, tid, r.hours, r.cons, r.temp)
				i++
			}
		}
		page, i = leafNext(leaf), 0
		r.bp.unpin(lf, false)
	}
	return err
}

// decodeRowRun decodes the row tuples that leaf entries i, i+1, ...
// address on the pinned heap page hp, into cons/temp, and returns the
// index of the first entry it did not decode: the leaf's end, or an
// entry whose TID lies on another page. done reports an entry of
// another household or at or beyond hour len(cons), which ends the
// household's scan. Every entry is checked against the page it reads:
// its slot is one of the page's, the slot's tuple lies inside the page
// and is a row tuple, and the tuple's household and hour are the
// entry's key. The hour is compared as the uint64 the key holds, so a
// stored hour never indexes cons unchecked, at any int width.
func decodeRowRun(leaf []byte, i int, hp *frame, cons, temp []float64) (next int, done bool, err error) {
	page := hp.data[:]
	count := heapPageSlotCount(page)
	fit := min(count, (PageSize-heapHeaderSize)/slotSize) // slots whose entries lie inside the page
	id := leafKey(leaf, i).ID
	for off := btreeHeaderSize + i*btreeLeafEntry; off < len(leaf); off, i = off+btreeLeafEntry, i+1 {
		e := leaf[off : off+btreeLeafEntry]
		k, tid := getKey(e, 0), getTID(e, btreeKeySize)
		if k.ID != id || k.Seq >= uint64(len(cons)) {
			return i, true, nil
		}
		if tid.Page != hp.id {
			return i, false, nil
		}
		if tid.Slot >= fit {
			return i, false, fmt.Errorf("rowstore: slot %d of %d on page %d", tid.Slot, count, hp.id)
		}
		slot := page[heapHeaderSize+int(tid.Slot)*slotSize:][:slotSize]
		at, length := int(getU16(slot, 0)), int(getU16(slot, 2))
		if at+length > PageSize {
			return i, false, fmt.Errorf("rowstore: corrupt slot %d", tid.Slot)
		}
		if length != rowTupleSize {
			return i, false, fmt.Errorf("rowstore: row tuple of %d bytes", length)
		}
		t := page[at : at+rowTupleSize]
		if owner, hour := getU64(t, 0), uint64(getU32(t, 8)); owner != id || hour != k.Seq {
			return i, false, fmt.Errorf("rowstore: index entry (%d, %d) points at tuple (%d, %d) of household %d, hour %d",
				k.ID, k.Seq, tid.Page, tid.Slot, owner, hour)
		}
		cons[k.Seq] = math.Float64frombits(getU64(t, 20))
		if temp != nil {
			temp[k.Seq] = math.Float64frombits(getU64(t, 12))
		}
	}
	return i, false, nil
}

// decodeChunk decodes the array chunk at tid, a view into its pinned heap
// page, into cons/temp, checking that it belongs to the household the
// index entry k names and that it starts at hours, where the previous
// chunk ended; it returns where this one ends. done reports a chunk at
// hour len(cons). A chunk straddling that hour is an invariant breach —
// chunks never span an append batch, and prefixes are only ever cut at
// batch boundaries. The stored start and count are compared as uint64
// before either becomes an int.
func decodeChunk(page []byte, k key, tid TID, hours int, cons, temp []float64) (end int, done bool, err error) {
	t, err := heapPageTuple(page, tid.Slot)
	if err != nil {
		return 0, false, err
	}
	owner, start, count, err := chunkBounds(t)
	switch {
	case err != nil:
		return 0, false, err
	case owner != k.ID:
		return 0, false, fmt.Errorf("rowstore: index entry (%d, %d) points at tuple (%d, %d) of household %d",
			k.ID, k.Seq, tid.Page, tid.Slot, owner)
	case start != uint64(hours):
		return 0, false, fmt.Errorf("rowstore: chunk at hour %d, want %d", start, hours)
	case start == uint64(len(cons)):
		return hours, true, nil
	case uint64(len(t)) != 16+count*16:
		return 0, false, fmt.Errorf("rowstore: chunk tuple size %d, want %d", len(t), 16+count*16)
	case start+count > uint64(len(cons)):
		return 0, false, fmt.Errorf("rowstore: prefix of %d hours cuts chunk [%d, %d)", len(cons), start, start+count)
	}
	n := int(count)
	for i := 0; i < n; i++ {
		cons[hours+i] = math.Float64frombits(getU64(t, 16+i*8))
	}
	for i := 0; temp != nil && i < n; i++ {
		temp[hours+i] = math.Float64frombits(getU64(t, 16+(n+i)*8))
	}
	return hours + n, false, nil
}

// chunkBounds decodes the household and the [start, start+count) hour
// range from a LayoutArrays chunk tuple header. They stay uint64 until
// a caller has checked them against a length.
func chunkBounds(t []byte) (id, start, count uint64, err error) {
	if len(t) < 16 {
		return 0, 0, 0, fmt.Errorf("rowstore: chunk tuple of %d bytes", len(t))
	}
	return getU64(t, 0), uint64(getU32(t, 8)), uint64(getU32(t, 12)), nil
}

// distinctIDs returns every stored household ID in ascending order by
// hopping across the index (seek to (id+1, 0) after each hit), with the
// TID of each household's first tuple.
func (tb *table) distinctIDs() ([]timeseries.ID, []TID, error) {
	var ids []timeseries.ID
	var firsts []TID
	next := key{ID: 0, Seq: 0}
	for {
		got, first, found, err := tb.index.first(next)
		if err != nil {
			return nil, nil, err
		}
		if !found {
			return ids, firsts, nil
		}
		if got.ID < next.ID {
			// A corrupt leaf's keys are out of order; hopping on would
			// revisit it forever.
			return nil, nil, fmt.Errorf("rowstore: corrupt index: household %d after %d", got.ID, next.ID-1)
		}
		ids = append(ids, timeseries.ID(got.ID))
		firsts = append(firsts, first)
		if got.ID == math.MaxUint64 {
			return ids, firsts, nil
		}
		next = key{ID: got.ID + 1, Seq: 0}
	}
}

// baseIDs returns, in ascending order, the households the bulk load
// stored, leaving out any that only live Append created: the base view.
// The heap only appends, so a household's first tuple dates it, and the
// loaded households are the tb.consumers whose first tuples come first.
func (tb *table) baseIDs() ([]timeseries.ID, error) {
	ids, firsts, err := tb.distinctIDs()
	if err != nil || len(ids) <= tb.consumers {
		return ids, err
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := firsts[order[a]], firsts[order[b]]
		return x.Page < y.Page || (x.Page == y.Page && x.Slot < y.Slot)
	})
	loaded := order[:tb.consumers]
	sort.Ints(loaded)
	base := make([]timeseries.ID, len(loaded))
	for i, j := range loaded {
		base[i] = ids[j]
	}
	return base, nil
}

// errStopScan terminates a scan early; it never escapes this package's
// public API.
var errStopScan = fmt.Errorf("rowstore: stop scan")
