package colstore

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Live ingestion (core.Appender). The read-optimized segment file never
// grows in place; instead each household accumulates an in-memory tail
// beyond the immutable base segment. The tails live in one map under
// one mutex, and a tail seals every completed day into a compressed
// colcodec block — the same encoding SegmentWriter uses — so resident
// cost stays near the on-disk ratio. Checkpoint folds base + tails into
// a fresh segment file through SegmentWriter, making the tail durable.
//
// Isolation. Writers share ingestMu.RLock and serialize on mu, which a
// writer holds while it checks the whole batch, logs it and applies it;
// Snapshot takes ingestMu exclusively, so it waits out in-flight
// batches and can never observe half a batch, and a batch the check
// refuses leaves nothing behind.
// Captured tail state stays valid forever because tails are
// append-only: an append writes beyond every captured slice length (or
// reallocates), and sealing a day swaps in a fresh open slice rather
// than truncating the captured one.
//
// Durability. Without WithWAL the tail lives in memory only: Release,
// Load and OpenExisting drop it, and Checkpoint is the only way to
// keep appended data. With WithWAL armed, every batch is framed whole
// into one write-ahead log (internal/wal, the single file
// wal/wal-000.log) under mu before it is applied, so log order equals
// apply order and a batch whose log write fails is not applied at all;
// after mu is released one group Commit makes it durable before Append
// acks. On reopen the log is replayed through the same idempotent
// apply. Duplicates in the log (retried batches are re-logged whole)
// fall into the r.Hour < expected no-op, so recovery is bit-exact with
// a no-crash run over the acked prefix. Checkpoint folds the common
// prefix of every household into a fresh segment file (temp file +
// fsync + rename + dir fsync) and rewrites the log down to the unfolded
// remainders. A log directory written by a build that kept one log per
// writer shard (wal-000.log to wal-015.log) must be checkpointed by
// that build before this one opens it: only wal-000.log is read.

// dayHours is the sealing granularity: one compressed block per
// completed day, mirroring the hourly-readings-per-day layout the
// paper's tasks assume.
const dayHours = 24

// sealedDay is one full day of readings sealed into a colcodec block.
type sealedDay struct {
	payload []byte
}

// liveSeries is one household's in-memory tail beyond the base
// segment. sealed and open are append-only; see the isolation note
// above.
type liveSeries struct {
	id     timeseries.ID
	base   int // hours stored in the base segment (0 for new households)
	sealed []sealedDay
	open   []float64 // current partial day
}

// hours returns the household's total committed hours, base included.
func (ls *liveSeries) hours() int {
	return ls.base + dayHours*len(ls.sealed) + len(ls.open)
}

// liveTail is the engine's live-ingestion state.
type liveTail struct {
	// ingestMu is share-locked by writers and exclusively locked by
	// Snapshot and Checkpoint: batch atomicity with respect to both.
	ingestMu sync.RWMutex
	epoch    atomic.Uint64
	applied  atomic.Int64 // total tail readings resident

	baseN   int                   // base series length (0 without a base)
	baseIDs map[timeseries.ID]int // base household -> consumer index

	// mu is the writers' mutual exclusion: it guards the tails, the
	// encoder, the temperature tail and the log's record order.
	mu       sync.Mutex
	m        map[timeseries.ID]*liveSeries
	enc      colcodec.Encoder
	tempTail []float64 // temperature beyond the base column; append-only

	// wlog, when non-nil, is the armed write-ahead log.
	wlog *wal.Log
}

// ensureLive lazily builds the live tail, attaching the base segment
// file when one exists (a missing file just means ingestion starts
// from empty).
func (e *Engine) ensureLive() (*liveTail, error) {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	if e.live != nil {
		return e.live, nil
	}
	if e.store == nil {
		if _, err := os.Stat(e.path); err == nil {
			if err := e.attach(); err != nil {
				return nil, err
			}
		}
	}
	lt := &liveTail{m: make(map[timeseries.ID]*liveSeries)}
	if e.store != nil {
		lt.baseN = e.store.n
		lt.baseIDs = make(map[timeseries.ID]int, e.store.consumers)
		for i, id := range e.store.ids {
			lt.baseIDs[id] = i
		}
	}
	if e.walOn {
		lg, err := wal.Open(wal.Options{
			Dir:    e.walDir(),
			Shards: 1,
			Policy: e.walPolicy,
			FS:     e.walFS,
		})
		if err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
		// Recovery: replay the acked batches through the same
		// idempotent apply path live writes take. Readings already in
		// the base (a checkpoint outran the log rewrite) fall into the
		// duplicate no-op; the epoch is untouched — it restarts at the
		// reopened state's zero, per the core.Appender contract. No
		// writer can see lt yet, so mu is not needed.
		err = lg.Replay(func(_ int, batch []core.Reading) error {
			return lt.apply(batch)
		})
		if err != nil {
			_ = lg.Close()
			return nil, fmt.Errorf("colstore: wal replay: %w", err)
		}
		lt.wlog = lg
	}
	e.live = lt
	return lt, nil
}

// Append implements core.Appender. It is safe for concurrent use with
// itself and Snapshot; writers serialize on the tail's mutex. With the
// WAL armed, the batch is framed into the log before it is applied,
// and — under SyncBatch/SyncAlways — group-committed to disk before
// Append returns, so a nil return means the batch survives a crash.
func (e *Engine) Append(batch []core.Reading) error {
	lt, err := e.ensureLive()
	if err != nil {
		return err
	}
	lt.ingestMu.RLock()
	defer lt.ingestMu.RUnlock()
	seq, err := lt.logAndApply(batch)
	if err != nil {
		return err
	}
	// Group commit outside mu: concurrent writers share the leader's
	// fsync instead of serializing on it.
	if lt.wlog != nil {
		if err := lt.wlog.Commit(0, seq); err != nil {
			return fmt.Errorf("colstore: %w", err)
		}
	}
	lt.epoch.Add(1)
	return nil
}

// logAndApply checks the whole batch against the ordering and
// temperature contracts, frames it into the log and only then applies
// it, all under mu, so a refused batch or a failed log write changes
// nothing a snapshot could see, and the apply cannot fail a check the
// batch passed. The whole batch is logged, redelivered readings
// included: a batch whose first attempt applied but failed to commit
// must land in the log again when the caller retries and gets its ack.
// The returned seq is the one the caller must Commit before acking.
// The caller holds ingestMu shared.
func (lt *liveTail) logAndApply(batch []core.Reading) (seq uint64, err error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if err := core.CheckBatch(batch, lt.committedHours, lt.baseN+len(lt.tempTail)); err != nil {
		return 0, fmt.Errorf("colstore: %w", err)
	}
	if lt.wlog != nil && len(batch) > 0 {
		if seq, err = lt.wlog.Append(0, batch); err != nil {
			return 0, fmt.Errorf("colstore: %w", err)
		}
	}
	return seq, lt.apply(batch)
}

// committedHours is a household's committed hours, its base column
// included. The caller holds mu.
func (lt *liveTail) committedHours(id timeseries.ID) int {
	if ls := lt.m[id]; ls != nil {
		return ls.hours()
	}
	if _, ok := lt.baseIDs[id]; ok {
		return lt.baseN
	}
	return 0
}

// apply applies the batch in batch order: it grows the shared
// temperature column to cover each reading and appends each fresh
// reading to its household's tail. Redelivered hours (below the
// household's next expected hour) are skipped, making retried batches
// apply exactly once, and a reading at an hour the temperature column
// already covers leaves the column as it is. Its own checks are the
// ones WAL replay relies on; a live Append has passed core.CheckBatch
// already. The caller holds mu, or owns lt alone.
func (lt *liveTail) apply(batch []core.Reading) error {
	var applied int64
	defer func() { lt.applied.Add(applied) }()
	for i := range batch {
		r := &batch[i]
		if r.Hour < 0 {
			return fmt.Errorf("colstore: negative hour %d for household %d", r.Hour, r.ID)
		}
		switch n := lt.baseN + len(lt.tempTail); {
		case r.Hour == n:
			lt.tempTail = append(lt.tempTail, r.Temperature)
		case r.Hour > n:
			return fmt.Errorf("colstore: temperature gap: reading at hour %d, column covers %d", r.Hour, n)
		}
		ls := lt.m[r.ID]
		if ls == nil {
			if r.ID <= 0 {
				return fmt.Errorf("colstore: household id must be positive, got %d", r.ID)
			}
			ls = &liveSeries{id: r.ID}
			if _, ok := lt.baseIDs[r.ID]; ok {
				ls.base = lt.baseN
			}
			lt.m[r.ID] = ls
		}
		expected := ls.hours()
		if r.Hour < expected {
			continue // duplicate redelivery: already committed
		}
		if r.Hour > expected {
			return fmt.Errorf("colstore: household %d: gap at hour %d, expected %d", r.ID, r.Hour, expected)
		}
		ls.open = append(ls.open, r.Consumption)
		applied++
		if len(ls.open) == dayHours {
			ls.sealed = append(ls.sealed, sealedDay{payload: lt.enc.AppendValues(nil, ls.open)})
			// A fresh slice, not a truncation: snapshots captured the
			// old day's header and keep reading it.
			ls.open = nil
		}
	}
	return nil
}

// snapItem is one household's captured state: an optional base segment
// column plus immutable tail headers.
type snapItem struct {
	id     timeseries.ID
	cons   int // base consumer index, -1 when tail-only
	baseH  int
	sealed []sealedDay
	open   []float64
}

// Snapshot implements core.Appender: a read-isolated view of the base
// segment plus every committed tail, with the epoch it was taken at. It
// reads base columns through the engine's pager and stays valid while
// appends continue and across a Checkpoint; Load and Release invalidate
// it.
func (e *Engine) Snapshot() (core.Snapshot, core.Epoch, error) {
	lt, err := e.ensureLive()
	if err != nil {
		return nil, 0, err
	}
	lt.ingestMu.Lock()
	// Read the store reference inside the exclusive section: a
	// concurrent Checkpoint swaps it under the same lock, and the
	// captured tail state must pair with the base it grew on.
	st, pg := e.store, e.pager
	ep := core.Epoch(lt.epoch.Load())
	tails := make(map[timeseries.ID]*snapItem, len(lt.m))
	for id, ls := range lt.m {
		tails[id] = &snapItem{id: id, cons: -1, sealed: ls.sealed, open: ls.open}
	}
	nTemp := lt.baseN + len(lt.tempTail)
	temp := make([]float64, 0, nTemp)
	if st != nil {
		temp = append(temp, st.temp...)
	}
	temp = append(temp, lt.tempTail...)
	lt.ingestMu.Unlock()

	var items []snapItem
	if st != nil {
		items = make([]snapItem, 0, st.consumers+len(tails))
		for c, id := range st.ids {
			it := snapItem{id: id, cons: c, baseH: st.n}
			if t, ok := tails[id]; ok {
				it.sealed, it.open = t.sealed, t.open
				delete(tails, id)
			}
			items = append(items, it)
		}
	} else {
		items = make([]snapItem, 0, len(tails))
	}
	for _, t := range tails {
		items = append(items, *t)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })
	return &snapCursor{pg: pg, items: items, temp: temp}, ep, nil
}

var _ core.Appender = (*Engine)(nil)

// snapCursor merges one base column with the captured tail per Next,
// decoding into the row the caller handed it (core.RowTaker) or else a
// new one: either way the row is the caller's, and the cursor never
// writes it again, since it must outlive the cursor while writers keep
// appending. The caller may hand it back for a later Next. pg is the
// pager of the store captured with the tails, so a snapshot taken
// before a checkpoint keeps reading the retired store through the cache
// that belongs to it.
type snapCursor struct {
	pg      *pager
	items   []snapItem
	temp    []float64
	ctx     context.Context
	scratch []byte
	row     []float64 // the caller's row for the next Next, if any
	i       int
	closed  bool
}

func (c *snapCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *snapCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.items) {
		return nil, io.EOF
	}
	it := &c.items[c.i]
	total := it.baseH + dayHours*len(it.sealed) + len(it.open)
	row := c.row
	if len(row) != total {
		row = make([]float64, total)
	}
	// readConsumer and decodeTail between them write every hour of row.
	if it.baseH > 0 {
		var err error
		if c.scratch, err = c.pg.readConsumer(it.cons, row[:it.baseH], c.scratch); err != nil {
			return nil, err
		}
	}
	if err := decodeTail(it.id, it.sealed, it.open, row[it.baseH:]); err != nil {
		return nil, err
	}
	c.row = nil
	c.i++
	return &timeseries.Series{ID: it.id, Readings: row}, nil
}

// TakeRow implements core.RowTaker.
func (c *snapCursor) TakeRow(row []float64) { c.row = row }

func (c *snapCursor) Reset() error {
	// The rows handed out are the caller's; replaying re-decodes the
	// same captured state.
	c.i = 0
	c.closed = false
	return nil
}

func (c *snapCursor) Close() error {
	c.closed = true
	c.scratch = nil
	c.row = nil
	return nil
}

func (c *snapCursor) SizeHint() (int, bool) { return len(c.items), true }

// NewCursors implements core.Snapshot: up to max cursors over
// contiguous ranges of the households the snapshot captured, as
// Engine.NewCursors splits the store, so a run over a snapshot extracts
// on every worker. They read the captured state through the same pager,
// and each is closed on its own.
func (c *snapCursor) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("colstore: snapshot NewCursors: max must be >= 1, got %d", max)
	}
	curs := make([]core.Cursor, 0, max)
	for _, r := range core.PartitionRanges(len(c.items), max) {
		curs = append(curs, &snapCursor{pg: c.pg, items: c.items[r[0]:r[1]], temp: c.temp})
	}
	return curs, nil
}

// Temperature implements core.Snapshot: the temperature column as
// captured at snapshot time.
func (c *snapCursor) Temperature() (*timeseries.Temperature, error) {
	return &timeseries.Temperature{Values: c.temp}, nil
}

// Checkpoint folds the live tail into a fresh segment file and
// re-attaches it, making appended data durable in the read-optimized
// format and shrinking (or emptying) the tail. It is safe to run
// concurrently with Append and Snapshot: it takes the ingest lock
// exclusively, waits out in-flight batches, and stops the world for
// the fold. The fold cut is the minimum total hours over all
// households — everything below it moves into the new base, the
// remainders stay in the tail — so households need not be aligned. The
// segment rewrite is crash-safe (temp file, fsync, rename, directory
// fsync): a crash mid-checkpoint leaves the old segment intact and,
// with the WAL armed, the full log to replay over it. Epochs keep
// counting across a checkpoint, and snapshot cursors taken before it
// stay readable — the replaced store is retired, not closed, until
// Release.
func (e *Engine) Checkpoint() error {
	lt, err := e.ensureLive()
	if err != nil {
		return err
	}
	lt.ingestMu.Lock()
	defer lt.ingestMu.Unlock()
	return e.checkpointLocked(lt)
}

// ckptSeries is one household's fold state during a checkpoint.
type ckptSeries struct {
	id  timeseries.ID
	ls  *liveSeries // nil for base households with no tail
	rem []float64   // readings above the cut, kept in the new tail
}

// checkpointLocked is Checkpoint's body; the caller holds ingestMu
// exclusively, so the tails, the temperature tail and e.store are all
// frozen.
func (e *Engine) checkpointLocked(lt *liveTail) error {
	st := e.store
	// Collect every household and its total hours; the fold cut is
	// the minimum, so the new base stays rectangular.
	var items []ckptSeries
	cut := -1
	if st != nil {
		items = make([]ckptSeries, 0, st.consumers+len(lt.m))
		for _, id := range st.ids {
			ls := lt.m[id]
			h := st.n
			if ls != nil {
				h = ls.hours()
			}
			items = append(items, ckptSeries{id: id, ls: ls})
			if cut < 0 || h < cut {
				cut = h
			}
		}
	}
	for id, ls := range lt.m {
		if _, ok := lt.baseIDs[id]; ok {
			continue // collected with the base households above
		}
		items = append(items, ckptSeries{id: id, ls: ls})
		if h := ls.hours(); cut < 0 || h < cut {
			cut = h
		}
	}
	if len(items) == 0 {
		return fmt.Errorf("colstore: nothing to checkpoint")
	}
	if st != nil && cut <= st.n {
		// A laggard household pins the cut at (or below) the current
		// base: nothing can fold without truncating stored data.
		return nil
	}
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })

	fullTemp := make([]float64, 0, lt.baseN+len(lt.tempTail))
	if st != nil {
		fullTemp = append(fullTemp, st.temp...)
	}
	fullTemp = append(fullTemp, lt.tempTail...)
	if cut > len(fullTemp) {
		return fmt.Errorf("colstore: checkpoint: households cover %d hours, temperature only %d", cut, len(fullTemp))
	}

	var opts []WriterOption
	if st != nil {
		opts = append(opts, WithBlockRows(st.blockRows))
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return fmt.Errorf("colstore: %w", err)
	}
	tmp := e.path + ".tmp"
	w, err := NewSegmentWriter(tmp, fullTemp[:cut], opts...)
	if err != nil {
		return err
	}
	// Each base consumer is read once, through a pager that caches
	// nothing: the engine's cache belongs to the store being replaced.
	var base *pager
	if st != nil {
		base = newPager(st, 0)
	}
	var row []float64
	var area []byte
	for i := range items {
		it := &items[i]
		row, area, err = lt.assembleRow(base, it, row, area)
		if err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
		if err := w.Append(it.id, row[:cut]); err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
		if len(row) > cut {
			it.rem = append([]float64(nil), row[cut:]...)
		}
	}
	if err := w.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := renameSynced(tmp, e.path, "checkpoint rename"); err != nil {
		return err
	}

	// Swap in the new base. The old store is retired, not closed:
	// snapshot cursors taken before this checkpoint keep decoding it.
	if e.store != nil {
		e.retired = append(e.retired, e.store)
	}
	if err := e.attach(); err != nil {
		return err
	}

	// Rebuild the tail in place (writers blocked on ingestMu resume
	// against the same liveTail): a fresh map holds only the
	// remainders, re-sealed at day granularity. The epoch keeps
	// counting — snapshots stay monotonic across the fold.
	lt.baseN = cut
	lt.baseIDs = make(map[timeseries.ID]int, e.store.consumers)
	for i, id := range e.store.ids {
		lt.baseIDs[id] = i
	}
	var remReadings int64
	lt.m = make(map[timeseries.ID]*liveSeries)
	for i := range items {
		it := &items[i]
		if len(it.rem) == 0 {
			continue
		}
		ls := &liveSeries{id: it.id, base: cut}
		rem := it.rem
		for len(rem) >= dayHours {
			ls.sealed = append(ls.sealed, sealedDay{payload: lt.enc.AppendValues(nil, rem[:dayHours])})
			rem = rem[dayHours:]
		}
		if len(rem) > 0 {
			ls.open = append([]float64(nil), rem...)
		}
		lt.m[it.id] = ls
		remReadings += int64(len(it.rem))
	}
	lt.tempTail = append([]float64(nil), fullTemp[cut:]...)
	lt.applied.Store(remReadings)

	// Shrink the log to the remainders. A crash between the segment
	// rename above and this rewrite is safe: the stale log replays
	// over the new base and every folded reading lands in the
	// duplicate no-op.
	if lt.wlog != nil {
		var batches [][]core.Reading
		for i := range items {
			it := &items[i]
			if len(it.rem) == 0 {
				continue
			}
			b := make([]core.Reading, len(it.rem))
			for j, v := range it.rem {
				b[j] = core.Reading{
					ID:          it.id,
					Hour:        cut + j,
					Consumption: v,
					Temperature: fullTemp[cut+j],
				}
			}
			batches = append(batches, b)
		}
		return lt.wlog.Rewrite(0, batches)
	}
	return nil
}

// assembleRow decodes one household's full series — base column read
// through base (nil without a base segment), sealed tail days, open
// tail — into row, reusing the buffers.
func (lt *liveTail) assembleRow(base *pager, it *ckptSeries, row []float64, area []byte) ([]float64, []byte, error) {
	baseH := 0
	cons := -1
	if base != nil {
		if c, ok := lt.baseIDs[it.id]; ok {
			baseH, cons = base.st.n, c
		}
	}
	total := baseH
	if it.ls != nil {
		total = it.ls.hours()
	}
	if cap(row) < total {
		row = make([]float64, total)
	}
	row = row[:total]
	if baseH > 0 {
		var err error
		if area, err = base.readConsumer(cons, row[:baseH], area); err != nil {
			return row, area, err
		}
	}
	if it.ls == nil {
		return row, area, nil
	}
	return row, area, decodeTail(it.id, it.ls.sealed, it.ls.open, row[baseH:])
}

// decodeTail fills dst, the part of a household's row beyond its base
// column, with its sealed days and then its open partial day. A sealed
// day holds dayHours readings, whatever its payload says.
func decodeTail(id timeseries.ID, sealed []sealedDay, open, dst []float64) error {
	for b := range sealed {
		if err := colcodec.DecodeExact(sealed[b].payload, dst[:dayHours]); err != nil {
			return fmt.Errorf("colstore: household %d sealed day %d: %w", id, b, err)
		}
		dst = dst[dayHours:]
	}
	copy(dst, open)
	return nil
}
