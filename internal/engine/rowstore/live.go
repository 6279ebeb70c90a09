package rowstore

import (
	"fmt"
	"sort"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Live ingestion (core.Appender). New readings become ordinary tuple
// inserts through the same heap/B+tree machinery as the bulk loader.
// The whole batch is applied while holding readMu, the table latch,
// exclusively, which makes writers serial through the log's fsync too
// (colstore's writers hold their tail mutex only while they log and
// apply, and share a group commit after it; this engine models one heap
// and one index every writer inserts into) and makes batches atomic
// with respect to snapshots and readers, who hold the same latch
// shared, for free.
//
// Placement. A household's live tuple goes on the heap page of its last
// tuple while that page has room, and on a fresh page chained at the
// heap tail otherwise (liveState.insert), so its live hours fill pages
// of their own and a snapshot's index phase reads them a page at a time
// through the pool, which keeps them for the next query. The page of a
// household's last tuple is one TID in liveState.hints, taken at the
// first touch from the last index entry committedLen reads, and checked
// at the session's first insert.
//
// Visibility. table.seriesLen is the published base length, set by Load
// and by nothing else: NewCursors and Run keep reading exactly the
// seriesLen prefix, so the base view is stable while ingestion runs,
// across checkpoints and reopens. Snapshot captures the
// per-household live lengths and serves the full committed state
// through truncating prefix reads (readSeriesShared), so a snapshot at
// epoch E never observes a batch committed after E.
//
// Durability. Live tuples are real pages: every Append rewrites the
// meta page, and the buffer pool flushes on Close/Release, so a
// reopened engine rebuilds its live lengths from the index. It does so
// lazily, at the first Append or Snapshot (ensureLive), which lists
// every household with a descent each (distinctIDs), finds each one's
// last index entry with one more (committedLen, btree.last), reads the
// longest household's temperature column and, with the log armed,
// replays the log: O(households × height) page fetches before the
// column and the replay, however long the households are. That
// baseline loses whatever a crash catches in the pool; WithWAL closes
// the hole: the batch is framed into a single-shard write-ahead log
// before Append acks — the whole batch, duplicates included, because a
// batch applied in memory whose log write failed must re-log entirely
// on retry or the retry's ack would promise durability the log cannot
// deliver — the pool switches to no-steal so the table file only
// changes at checkpoints, and reopen replays the log through
// applyBatch, which skips duplicates exactly like live delivery. See
// durable.go for the checkpoint protocol.

// liveState tracks per-household committed lengths beyond the
// published seriesLen. Guarded by Engine.readMu, held exclusively.
type liveState struct {
	epoch uint64
	lens  map[timeseries.ID]int    // household -> total committed hours
	seqs  map[timeseries.ID]uint64 // next index sequence (LayoutArrays chunk seq)
	hints map[timeseries.ID]hint   // where each household's last tuple lies
	ids   []timeseries.ID          // ascending, base + live-only households
	temp  []float64                // full temperature column incl. live hours
}

// hint is the TID of a household's last tuple, whose page takes the
// household's next live tuple while it has room (liveState.insert).
// checked is false for a TID read from the index at the first touch
// until the session's first insert has checked it.
type hint struct {
	tid     TID
	checked bool
}

// ensureLive lazily builds the live state from the index. Callers hold
// readMu exclusively.
func (e *Engine) ensureLive() (*liveState, error) {
	if e.live != nil {
		return e.live, nil
	}
	// Every stored household, the base ones and those only live Append
	// created.
	ids, _, err := e.table.distinctIDs()
	if err != nil {
		return nil, err
	}
	ls := &liveState{
		lens:  make(map[timeseries.ID]int, len(ids)),
		seqs:  make(map[timeseries.ID]uint64, len(ids)),
		hints: make(map[timeseries.ID]hint, len(ids)),
		ids:   ids,
	}
	maxLen := 0
	var maxID timeseries.ID
	for _, id := range ids {
		n, seq, last, err := e.committedLen(id)
		if err != nil {
			return nil, err
		}
		ls.lens[id] = n
		ls.seqs[id] = seq
		ls.hints[id] = hint{tid: last}
		if n > maxLen {
			maxLen, maxID = n, id
		}
	}
	if maxLen > 0 {
		// The longest household's tuples carry the full temperature
		// column (every committed hour appears in at least that one).
		ls.temp = make([]float64, maxLen)
		if err := e.table.readSeriesInto(nil, maxID, make([]float64, maxLen), ls.temp); err != nil {
			return nil, err
		}
	}
	if e.walOn && e.wlog == nil {
		// First touch after open: replay whatever the log holds on top
		// of the checkpointed base. Batches apply through the same
		// duplicate-skipping path as live delivery, so a log that
		// overlaps the base (clean shutdown mid-ingest) is harmless.
		lg, err := wal.Open(wal.Options{
			Dir:    e.walDir(),
			Shards: 1,
			Policy: e.walPolicy,
			FS:     e.walFS,
		})
		if err != nil {
			return nil, fmt.Errorf("rowstore: %w", err)
		}
		replayed := false
		if err := lg.Replay(func(shard int, batch []core.Reading) error {
			replayed = true
			return e.applyBatch(ls, batch)
		}); err != nil {
			_ = lg.Close()
			return nil, fmt.Errorf("rowstore: wal replay: %w", err)
		}
		e.wlog = lg
		if replayed {
			tb := e.table
			if err := writeMeta(e.bp, tb.meta()); err != nil {
				return nil, err
			}
		}
	}
	e.live = ls
	return ls, nil
}

// committedLen reads a household that distinctIDs listed for its total
// committed hours (live tuples included), its next sequence number and
// the TID of its last tuple, from its last index entry, the greatest
// below the next household's first key: one descent, and in the array
// layout that entry's chunk. The row layout's tuple is not read here:
// the TID is checked where it is used (liveState.insert). A
// descent that finds no entry, or another household's, contradicts the
// listing and is a corrupt index. (ID MaxUint64, which only a damaged
// file lists, has no next household: its bound wraps to (0, 0), below
// every key.)
func (e *Engine) committedLen(id timeseries.ID) (hours int, nextSeq uint64, last TID, err error) {
	lastK, lastT, found, err := e.table.index.last(key{ID: uint64(id) + 1})
	if err != nil {
		return 0, 0, TID{}, err
	}
	if !found {
		return 0, 0, TID{}, fmt.Errorf("rowstore: corrupt index: no entry for household %d", id)
	}
	if lastK.ID != uint64(id) {
		return 0, 0, TID{}, fmt.Errorf("rowstore: corrupt index: household %d's last entry is (%d, %d)", id, lastK.ID, lastK.Seq)
	}
	// The length sizes the live temperature column, so it is checked
	// against the file while it is still a uint64: each stored reading
	// takes at least 16 bytes of the file in either layout.
	var end uint64
	switch e.table.layout {
	case LayoutRows:
		end = lastK.Seq + 1
	case LayoutArrays:
		t, err := e.table.heap.get(lastT)
		if err != nil {
			return 0, 0, TID{}, err
		}
		_, start, count, err := chunkBounds(t)
		if err != nil {
			return 0, 0, TID{}, err
		}
		end = start + count
	default:
		return 0, 0, TID{}, fmt.Errorf("rowstore: unknown layout %v", e.table.layout)
	}
	if size := uint64(e.pf.sizeBytes()); end == 0 || end > size/16 {
		return 0, 0, TID{}, fmt.Errorf("rowstore: household %d's %d hours exceed what a %d-byte file holds", id, end, size)
	}
	return int(end), lastK.Seq + 1, lastT, nil
}

// Append implements core.Appender. The batch is checked whole
// (core.CheckBatch) and then applied under the exclusive table latch —
// serial writers, atomic batches — with redelivered hours skipped, so a
// retried batch applies exactly once and a refused one leaves nothing
// behind. The meta page is rewritten per batch for durability.
func (e *Engine) Append(batch []core.Reading) error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	ls, err := e.ensureLive()
	if err != nil {
		return err
	}
	committed := func(id timeseries.ID) int { return ls.lens[id] }
	if err := core.CheckBatch(batch, committed, len(ls.temp)); err != nil {
		return fmt.Errorf("rowstore: %w", err)
	}
	if err := e.applyBatch(ls, batch); err != nil {
		return err
	}
	if e.wlog != nil && len(batch) > 0 {
		// Log the batch verbatim before acking. A failed write or sync
		// surfaces here and the ack never happens; the producer's retry
		// re-applies (duplicates skip) and re-logs the whole batch.
		seq, err := e.wlog.Append(0, batch)
		if err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
		if err := e.wlog.Commit(0, seq); err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
	}
	ls.epoch++
	return writeMeta(e.bp, e.table.meta())
}

// applyBatch inserts the batch's fresh readings. LayoutArrays
// coalesces each maximal contiguous same-household run into chunk
// tuples, so chunks never span a batch — the invariant the truncating
// prefix reads rely on. Household lengths advance only once tuples are
// actually inserted, so an aborted batch leaves a retryable state. Its
// own checks are the ones WAL replay relies on; a live Append has passed
// core.CheckBatch already, so only an I/O error can stop it part-way.
func (e *Engine) applyBatch(ls *liveState, batch []core.Reading) error {
	tb := e.table
	var buf []byte
	var runID timeseries.ID
	var runStart int
	var runCons, runTemps []float64
	flushRun := func() error {
		if len(runCons) == 0 {
			return nil
		}
		seq := ls.seqs[runID]
		if err := eachChunk(runID, runStart, runCons, runTemps, func(chunk []byte) error {
			seq++
			return ls.insert(tb, runID, seq-1, chunk)
		}); err != nil {
			return err
		}
		ls.seqs[runID] = seq
		ls.lens[runID] = runStart + len(runCons)
		runCons, runTemps = runCons[:0], runTemps[:0]
		return nil
	}
	for i := range batch {
		r := &batch[i]
		if r.Hour < 0 {
			return fmt.Errorf("rowstore: negative hour %d for household %d", r.Hour, r.ID)
		}
		expected, known := ls.lens[r.ID]
		if !known {
			if r.ID <= 0 {
				return fmt.Errorf("rowstore: household id must be positive, got %d", r.ID)
			}
			expected = 0
		}
		if tb.layout == LayoutArrays && r.ID == runID && len(runCons) > 0 {
			// The pending run extends this household past its flushed
			// length.
			if end := runStart + len(runCons); end > expected {
				expected = end
			}
		}
		if r.Hour < expected {
			continue // duplicate redelivery: already committed
		}
		if r.Hour > expected {
			return fmt.Errorf("rowstore: household %d: gap at hour %d, expected %d", r.ID, r.Hour, expected)
		}
		if !known {
			// First reading of a new household: register it in the
			// ascending ID list (base households were pre-registered).
			pos := sort.Search(len(ls.ids), func(j int) bool { return ls.ids[j] >= r.ID })
			ls.ids = append(ls.ids, 0)
			copy(ls.ids[pos+1:], ls.ids[pos:])
			ls.ids[pos] = r.ID
			ls.lens[r.ID] = 0
		}
		switch {
		case r.Hour == len(ls.temp):
			ls.temp = append(ls.temp, r.Temperature)
		case r.Hour > len(ls.temp):
			return fmt.Errorf("rowstore: temperature gap: reading at hour %d, column covers %d", r.Hour, len(ls.temp))
		}
		switch tb.layout {
		case LayoutRows:
			buf = encodeRowTuple(buf, r.ID, r.Hour, r.Temperature, r.Consumption)
			if err := ls.insert(tb, r.ID, uint64(r.Hour), buf); err != nil {
				return err
			}
			ls.lens[r.ID] = r.Hour + 1
		case LayoutArrays:
			if r.ID != runID || len(runCons) == 0 || r.Hour != runStart+len(runCons) {
				if err := flushRun(); err != nil {
					return err
				}
				runID, runStart = r.ID, r.Hour
			}
			runCons = append(runCons, r.Consumption)
			runTemps = append(runTemps, r.Temperature)
		default:
			return fmt.Errorf("rowstore: unknown layout %v", tb.layout)
		}
	}
	return flushRun()
}

// insert stores one live tuple of household id, which ends at the
// household's committed length, and indexes it under seq. The tuple goes
// on the heap page of the household's last tuple while that page has
// room, and on a fresh page chained at the heap tail otherwise
// (heapFile.place), so a household's live hours fill pages of their own
// and a read's index phase decodes them a page at a time
// (seriesRead.scan) instead of a page per hour. A TID the first touch
// read from the index is checked at the session's first insert, on the
// page that insert fetches anyway: its slot must hold the household's
// tuple ending at the committed length, or the tuple goes to the tail.
func (ls *liveState) insert(tb *table, id timeseries.ID, seq uint64, tuple []byte) error {
	near, keep := InvalidPage, (func([]byte) bool)(nil)
	if t, ok := ls.hints[id]; ok {
		near = t.tid.Page
		if !t.checked {
			keep = func(page []byte) bool { return endsAt(page, t.tid.Slot, tb.layout, id, ls.lens[id]) }
		}
	}
	tid, err := tb.heap.place(near, keep, tuple)
	if err != nil {
		return err
	}
	ls.hints[id] = hint{tid: tid, checked: true}
	return tb.index.insert(key{ID: uint64(id), Seq: seq}, tid)
}

// endsAt reports whether slot of the heap page holds household id's
// tuple that ends at hour end: in the row layout the tuple of hour
// end−1, in the array layout a whole chunk ending at end. Stored fields
// are compared as the uint64s they are read as.
func endsAt(page []byte, slot uint16, layout Layout, id timeseries.ID, end int) bool {
	t, err := heapPageTuple(page, slot)
	if err != nil {
		return false
	}
	if layout == LayoutRows {
		return len(t) == rowTupleSize && getU64(t, 0) == uint64(id) && uint64(getU32(t, 8))+1 == uint64(end)
	}
	owner, start, count, err := chunkBounds(t)
	return err == nil && owner == uint64(id) && uint64(len(t)) == 16+count*16 && start+count == uint64(end)
}

// Snapshot implements core.Appender: a read-isolated view of the full
// committed state — published base plus live tuples — in ascending
// household-ID order, with the epoch it was taken at. It re-reads
// tuples under the shared table latch per Next, truncated to the
// lengths captured here, so later appends are invisible to it.
func (e *Engine) Snapshot() (core.Snapshot, core.Epoch, error) {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return nil, 0, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	ls, err := e.ensureLive()
	if err != nil {
		return nil, 0, err
	}
	lens := make(map[timeseries.ID]int, len(ls.lens))
	for id, n := range ls.lens {
		lens[id] = n
	}
	return &rowSnapshot{
		rangeCursor: rangeCursor{e: e, ids: append([]timeseries.ID(nil), ls.ids...), lens: lens},
		temp:        append([]float64(nil), ls.temp...),
	}, core.Epoch(ls.epoch), nil
}

var _ core.Appender = (*Engine)(nil)

// rowSnapshot is the cursor over the households a snapshot captured,
// read at their captured lengths, with the temperature column captured
// beside them.
type rowSnapshot struct {
	rangeCursor
	temp []float64
}

// NewCursors implements core.Snapshot: up to max cursors over
// contiguous ranges of the households the snapshot captured, capped by
// the pool as Engine.NewCursors is (rangesFor). They read the captured
// lengths, and each is closed on its own.
func (s *rowSnapshot) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("rowstore: snapshot NewCursors: max must be >= 1, got %d", max)
	}
	return s.e.rangeCursors(s.ids, s.lens, max), nil
}

// Temperature implements core.Snapshot.
func (s *rowSnapshot) Temperature() (*timeseries.Temperature, error) {
	return &timeseries.Temperature{Values: s.temp}, nil
}
