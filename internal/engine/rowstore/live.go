package rowstore

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Live ingestion (core.Appender). New readings become ordinary tuple
// inserts through the same heap/B+tree machinery as the bulk loader.
// The whole batch is applied while holding readMu, the table latch,
// exclusively, which makes writers serial (deliberately contrasting
// colstore's sharded tail: this engine models one heap and one index
// every writer appends to) and makes batches atomic with respect to
// snapshots and readers, who hold the same latch shared, for free.
//
// Visibility. table.seriesLen is the published base length: NewCursor,
// Run and Warm keep reading exactly the seriesLen prefix, so the base
// view is stable while ingestion runs. Snapshot captures the
// per-household live lengths and serves the full committed state
// through truncating prefix reads (readSeriesShared), so a snapshot at
// epoch E never observes a batch committed after E.
//
// Durability. Live tuples are real pages: every Append rewrites the
// meta page, and the buffer pool flushes on Close/Release, so a
// reopened engine rebuilds its live lengths from the index (ensureLive
// scans lazily — the cold-start path pays nothing until the first
// Append or Snapshot). That baseline loses whatever a crash catches in
// the pool; WithWAL closes the hole: the batch is framed into a
// single-shard write-ahead log before Append acks — the whole batch,
// duplicates included, because a batch applied in memory whose log
// write failed must re-log entirely on retry or the retry's ack would
// promise durability the log cannot deliver — the pool switches to
// no-steal so the table file only changes at checkpoints, and reopen
// replays the log through applyBatch, which skips duplicates exactly
// like live delivery. See durable.go for the checkpoint protocol.

// liveState tracks per-household committed lengths beyond the
// published seriesLen. Guarded by Engine.readMu, held exclusively.
type liveState struct {
	epoch    uint64
	appended int64                    // tuples inserted through live Append this session
	lens     map[timeseries.ID]int    // household -> total committed hours
	seqs     map[timeseries.ID]uint64 // next index sequence (LayoutArrays chunk seq)
	ids      []timeseries.ID          // ascending, base + live-only households
	temp     []float64                // full temperature column incl. live hours
}

// ensureLive lazily builds the live state from the index. Callers hold
// readMu exclusively.
func (e *Engine) ensureLive() (*liveState, error) {
	if e.live != nil {
		return e.live, nil
	}
	ls := &liveState{
		lens: make(map[timeseries.ID]int, len(e.ids)),
		seqs: make(map[timeseries.ID]uint64, len(e.ids)),
		ids:  append([]timeseries.ID(nil), e.ids...),
	}
	maxLen := 0
	var maxID timeseries.ID
	for _, id := range e.ids {
		n, seq, err := e.committedLen(id)
		if err != nil {
			return nil, err
		}
		ls.lens[id] = n
		ls.seqs[id] = seq
		if n > maxLen {
			maxLen, maxID = n, id
		}
	}
	if maxLen > 0 {
		// The longest household's tuples carry the full temperature
		// column (every committed hour appears in at least that one).
		ls.temp = make([]float64, maxLen)
		if err := e.table.readSeriesInto(maxID, make([]float64, maxLen), ls.temp); err != nil {
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
			if err := writeMeta(e.bp, metaPage{
				layout:    tb.layout,
				heapFirst: tb.heap.first,
				heapLast:  tb.heap.last,
				tuples:    tb.heap.tuples,
				root:      tb.index.root,
				height:    tb.index.height,
				seriesLen: tb.seriesLen,
				consumers: tb.consumers,
			}); err != nil {
				return nil, err
			}
		}
	}
	e.live = ls
	return ls, nil
}

// committedLen scans one household's index range for its total
// committed hours (live tuples included) and next sequence number.
func (e *Engine) committedLen(id timeseries.ID) (hours int, nextSeq uint64, err error) {
	var lastK key
	var lastT TID
	found := false
	err = e.table.index.scanRange(key{ID: uint64(id)}, key{ID: uint64(id) + 1}, func(k key, v TID) error {
		lastK, lastT, found = k, v, true
		return nil
	})
	if err != nil || !found {
		return 0, 0, err
	}
	switch e.table.layout {
	case LayoutRows:
		return int(lastK.Seq) + 1, lastK.Seq + 1, nil
	case LayoutArrays:
		t, err := e.table.heap.get(lastT)
		if err != nil {
			return 0, 0, err
		}
		_, start, count, err := chunkBounds(t)
		if err != nil {
			return 0, 0, err
		}
		return start + count, lastK.Seq + 1, nil
	default:
		return 0, 0, fmt.Errorf("rowstore: unknown layout %v", e.table.layout)
	}
}

// Append implements core.Appender. The batch is applied under the
// exclusive table latch — serial writers, atomic batches — with
// redelivered hours skipped, so a retried batch applies exactly once.
// The meta page is rewritten per batch for durability.
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
	if e.tailBudget > 0 && ls.appended-e.ckptAppended >= e.tailBudget {
		e.triggerCheckpoint()
	}
	ls.epoch++
	tb := e.table
	return writeMeta(e.bp, metaPage{
		layout:    tb.layout,
		heapFirst: tb.heap.first,
		heapLast:  tb.heap.last,
		tuples:    tb.heap.tuples,
		root:      tb.index.root,
		height:    tb.index.height,
		seriesLen: tb.seriesLen,
		consumers: tb.consumers,
	})
}

// applyBatch inserts the batch's fresh readings. LayoutArrays
// coalesces each maximal contiguous same-household run into chunk
// tuples, so chunks never span a batch — the invariant the truncating
// prefix reads rely on. Household lengths advance only once tuples are
// actually inserted, so an aborted batch leaves a retryable state.
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
		if err := tb.insertChunks(runID, seq, runStart, runCons, runTemps); err != nil {
			return err
		}
		ls.seqs[runID] = seq + uint64((len(runCons)+chunkHours-1)/chunkHours)
		ls.lens[runID] = runStart + len(runCons)
		ls.appended += int64(len(runCons))
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
			tid, err := tb.heap.insert(buf)
			if err != nil {
				return err
			}
			if err := tb.index.insert(key{ID: uint64(r.ID), Seq: uint64(r.Hour)}, tid); err != nil {
				return err
			}
			ls.lens[r.ID] = r.Hour + 1
			ls.appended++
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

// Snapshot implements core.Appender: a read-isolated cursor over the
// full committed state — published base plus live tuples — in
// ascending household-ID order, with the epoch it was taken at. The
// cursor re-reads tuples under the shared table latch per Next,
// truncated to the lengths captured here, so later appends are
// invisible to it.
func (e *Engine) Snapshot() (core.Cursor, core.Epoch, error) {
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
	return &rowSnapCursor{
		e:    e,
		ids:  append([]timeseries.ID(nil), ls.ids...),
		lens: lens,
		temp: append([]float64(nil), ls.temp...),
	}, core.Epoch(ls.epoch), nil
}

var _ core.Appender = (*Engine)(nil)

// rowSnapCursor serves one captured-length prefix read per Next.
type rowSnapCursor struct {
	e      *Engine
	ids    []timeseries.ID
	lens   map[timeseries.ID]int
	temp   []float64
	ctx    context.Context
	i      int
	closed bool
}

func (c *rowSnapCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *rowSnapCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.ids) {
		return nil, io.EOF
	}
	id := c.ids[c.i]
	s, err := c.e.readSeriesShared(id, c.lens[id])
	if err != nil {
		return nil, err
	}
	c.i++
	return s, nil
}

func (c *rowSnapCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *rowSnapCursor) Close() error {
	c.closed = true
	return nil
}

func (c *rowSnapCursor) SizeHint() (int, bool) { return len(c.ids), true }

// SnapshotTemp implements core.SnapshotTemperature.
func (c *rowSnapCursor) SnapshotTemp() *timeseries.Temperature {
	return &timeseries.Temperature{Values: c.temp}
}
