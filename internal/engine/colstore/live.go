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
// beyond the immutable base segment. Tails are sharded across
// independently locked maps so concurrent writers on disjoint
// households (core.ShardFor) never contend, and a tail seals every
// completed day into a compressed colcodec block — the same encoding
// SegmentWriter uses — so resident cost stays near the on-disk ratio.
// Checkpoint folds base + tails into a fresh segment file through
// SegmentWriter, making the tail durable.
//
// Isolation. Writers share ingestMu.RLock (their mutual exclusion is
// the per-shard locks); Snapshot takes ingestMu exclusively, so it
// waits out in-flight batches and can never observe half a batch.
// Captured tail state stays valid forever because tails are
// append-only: an append writes beyond every captured slice length (or
// reallocates), and sealing a day swaps in a fresh open slice rather
// than truncating the captured one.
//
// Durability. Without WithWAL the tail lives in memory only: Release,
// Load and OpenExisting drop it, and Checkpoint is the only way to
// keep appended data. With WithWAL armed, every batch is framed into a
// per-shard write-ahead log (internal/wal) before Append acks — under
// the shard lock, so log order equals apply order — and replayed
// through this same idempotent apply path on reopen. Duplicates in the
// log (retried batches are re-logged whole) fall into the r.Hour <
// expected no-op, so recovery is bit-exact with a no-crash run over
// the acked prefix. Checkpoint folds the common prefix of every
// household into a fresh segment file (temp file + fsync + rename +
// dir fsync) and rewrites the log down to the unfolded remainders.

// liveShards is the number of independently locked tail maps. Sixteen
// comfortably exceeds the writer counts the ingest benchmark drives
// (Workers:4) while keeping the snapshot sweep trivial.
const liveShards = 16

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

type liveShard struct {
	mu     sync.Mutex
	m      map[timeseries.ID]*liveSeries
	enc    colcodec.Encoder
	logBuf []core.Reading // WAL framing scratch, reused per batch
}

// liveTail is the engine's live-ingestion state.
type liveTail struct {
	// ingestMu is share-locked by writers and exclusively locked by
	// Snapshot: batch atomicity with respect to snapshots.
	ingestMu sync.RWMutex
	epoch    atomic.Uint64
	applied  atomic.Int64 // total tail readings committed (AppendDelta guard)

	baseN   int                   // base series length (0 without a base)
	baseIDs map[timeseries.ID]int // base household -> consumer index

	shards [liveShards]liveShard

	// wlog, when non-nil, is the armed write-ahead log. Shard si's
	// batches frame into log shard si under the shard lock.
	wlog *wal.Log

	tempMu   sync.Mutex
	tempTail []float64 // temperature beyond the base column; append-only
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
	lt := &liveTail{}
	if e.store != nil {
		lt.baseN = e.store.n
		lt.baseIDs = make(map[timeseries.ID]int, e.store.consumers)
		for i, id := range e.store.ids {
			lt.baseIDs[id] = i
		}
	}
	for i := range lt.shards {
		lt.shards[i].m = make(map[timeseries.ID]*liveSeries)
	}
	if e.walOn {
		lg, err := wal.Open(wal.Options{
			Dir:    e.walDir(),
			Shards: liveShards,
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
		// reopened state's zero, per the core.Appender contract.
		err = lg.Replay(func(shard int, batch []core.Reading) error {
			if err := lt.extendTemp(batch); err != nil {
				return err
			}
			_, _, err := lt.applyShard(shard, batch, false)
			return err
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

// liveHours reports the number of tail readings currently resident.
func (e *Engine) liveHours() int64 {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	if e.live == nil {
		return 0
	}
	return e.live.applied.Load()
}

// Append implements core.Appender. It is safe for concurrent use with
// itself and Snapshot; writers whose batches touch disjoint shards
// (pre-split with core.ShardFor) proceed in parallel. With the WAL
// armed, the batch is framed into the per-shard log before Append
// returns, and — under SyncBatch/SyncAlways — group-committed to disk,
// so a nil return means the batch survives a crash.
func (e *Engine) Append(batch []core.Reading) error {
	lt, err := e.ensureLive()
	if err != nil {
		return err
	}
	lt.ingestMu.RLock()
	if err := lt.extendTemp(batch); err != nil {
		lt.ingestMu.RUnlock()
		return err
	}
	var present [liveShards]bool
	for i := range batch {
		present[core.ShardFor(batch[i].ID, liveShards)] = true
	}
	var seqs [liveShards]uint64
	var logged [liveShards]bool
	for s := range present {
		if !present[s] {
			continue
		}
		seq, lg, err := lt.applyShard(s, batch, true)
		if err != nil {
			lt.ingestMu.RUnlock()
			return err
		}
		seqs[s], logged[s] = seq, lg
	}
	// Group commit outside the shard locks: concurrent writers on one
	// shard share the leader's fsync instead of serializing on it.
	if lt.wlog != nil {
		for s := range logged {
			if !logged[s] {
				continue
			}
			if err := lt.wlog.Commit(s, seqs[s]); err != nil {
				lt.ingestMu.RUnlock()
				return err
			}
		}
	}
	lt.epoch.Add(1)
	applied := lt.applied.Load()
	lt.ingestMu.RUnlock()
	if e.tailBudget > 0 && applied >= e.tailBudget {
		e.triggerCheckpoint()
	}
	return nil
}

// extendTemp grows the shared temperature column to cover the batch.
// A reading at an hour the column already covers is a no-op (shared
// column, idempotent redelivery); a reading beyond the next hour is a
// gap — unreachable for callers honoring the per-household contiguity
// contract, since no household can be ahead of the column.
func (lt *liveTail) extendTemp(batch []core.Reading) error {
	lt.tempMu.Lock()
	defer lt.tempMu.Unlock()
	for i := range batch {
		r := &batch[i]
		if r.Hour < 0 {
			return fmt.Errorf("colstore: negative hour %d for household %d", r.Hour, r.ID)
		}
		n := lt.baseN + len(lt.tempTail)
		switch {
		case r.Hour < n:
			// temperature for this hour is already stored
		case r.Hour == n:
			lt.tempTail = append(lt.tempTail, r.Temperature)
		default:
			return fmt.Errorf("colstore: temperature gap: reading at hour %d, column covers %d", r.Hour, n)
		}
	}
	return nil
}

// applyShard applies the batch's readings belonging to shard si, in
// batch order. Redelivered hours (below the household's next expected
// hour) are skipped, making retried batches apply exactly once.
//
// With logIt set and the WAL armed, the shard's slice of the batch is
// framed into log shard si before the lock is released — including
// redelivered readings, deliberately: a batch whose first attempt
// applied in memory but failed to reach the log must still land in the
// log when the caller retries and gets its ack, or the ack would
// promise durability the log cannot deliver. Replay skips the
// duplicates just like this loop does. The returned seq is meaningful
// only when logged is true; the caller must Commit it before acking.
func (lt *liveTail) applyShard(si int, batch []core.Reading, logIt bool) (seq uint64, logged bool, err error) {
	sh := &lt.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	logIt = logIt && lt.wlog != nil
	sh.logBuf = sh.logBuf[:0]
	var applied int64
	for i := range batch {
		r := &batch[i]
		if core.ShardFor(r.ID, liveShards) != si {
			continue
		}
		if logIt {
			sh.logBuf = append(sh.logBuf, *r)
		}
		ls := sh.m[r.ID]
		if ls == nil {
			if r.ID <= 0 {
				return 0, false, fmt.Errorf("colstore: household id must be positive, got %d", r.ID)
			}
			ls = &liveSeries{id: r.ID}
			if _, ok := lt.baseIDs[r.ID]; ok {
				ls.base = lt.baseN
			}
			sh.m[r.ID] = ls
		}
		expected := ls.hours()
		if r.Hour < expected {
			continue // duplicate redelivery: already committed
		}
		if r.Hour > expected {
			return 0, false, fmt.Errorf("colstore: household %d: gap at hour %d, expected %d", r.ID, r.Hour, expected)
		}
		ls.open = append(ls.open, r.Consumption)
		applied++
		if len(ls.open) == dayHours {
			ls.sealed = append(ls.sealed, sealedDay{payload: sh.enc.AppendValues(nil, ls.open)})
			// A fresh slice, not a truncation: snapshots captured the
			// old day's header and keep reading it.
			ls.open = nil
		}
	}
	lt.applied.Add(applied)
	if logIt && len(sh.logBuf) > 0 {
		// Under the shard lock: the log's record order is exactly the
		// in-memory apply order for this shard.
		seq, err = lt.wlog.Append(si, sh.logBuf)
		if err != nil {
			return 0, false, err
		}
		logged = true
	}
	return seq, logged, nil
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

// Snapshot implements core.Appender: a read-isolated cursor over the
// base segment plus every committed tail, with the epoch it was taken
// at. The cursor reads base columns through the engine's pager and
// stays valid while appends continue and across a Checkpoint; Load and
// Release invalidate it.
func (e *Engine) Snapshot() (core.Cursor, core.Epoch, error) {
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
	tails := make(map[timeseries.ID]*snapItem)
	for si := range lt.shards {
		for id, ls := range lt.shards[si].m {
			tails[id] = &snapItem{id: id, cons: -1, sealed: ls.sealed, open: ls.open}
		}
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

// snapCursor merges one base column with the captured tail per Next.
// Rows are fresh allocations, decoded into directly: they must outlive
// the cursor while writers keep appending. pg is the pager of the store
// captured with the tails, so a snapshot taken before a checkpoint keeps
// reading the retired store through the cache that belongs to it.
type snapCursor struct {
	pg      *pager
	items   []snapItem
	temp    []float64
	ctx     context.Context
	scratch []byte
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
	row := make([]float64, total)
	if it.baseH > 0 {
		var err error
		if c.scratch, err = c.pg.readConsumer(it.cons, row[:it.baseH], c.scratch); err != nil {
			return nil, err
		}
	}
	if err := decodeTail(it.id, it.sealed, it.open, row[it.baseH:]); err != nil {
		return nil, err
	}
	c.i++
	return &timeseries.Series{ID: it.id, Readings: row}, nil
}

func (c *snapCursor) Reset() error {
	// Rows were handed out as fresh slices; replaying re-decodes the
	// same captured state.
	c.i = 0
	c.closed = false
	return nil
}

func (c *snapCursor) Close() error {
	c.closed = true
	c.scratch = nil
	return nil
}

func (c *snapCursor) SizeHint() (int, bool) { return len(c.items), true }

// SnapshotTemp implements core.SnapshotTemperature: the temperature
// column as captured at snapshot time.
func (c *snapCursor) SnapshotTemp() *timeseries.Temperature {
	return &timeseries.Temperature{Values: c.temp}
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
// exclusively, so shard maps, the temperature tail and e.store are all
// frozen.
func (e *Engine) checkpointLocked(lt *liveTail) error {
	st := e.store
	// Collect every household and its total hours; the fold cut is
	// the minimum, so the new base stays rectangular.
	var items []ckptSeries
	byID := make(map[timeseries.ID]*liveSeries)
	for si := range lt.shards {
		for id, ls := range lt.shards[si].m {
			byID[id] = ls
		}
	}
	cut := -1
	if st != nil {
		items = make([]ckptSeries, 0, st.consumers+len(byID))
		for _, id := range st.ids {
			ls := byID[id]
			delete(byID, id)
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
	for id, ls := range byID {
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
	if err := os.Rename(tmp, e.path); err != nil {
		return fmt.Errorf("colstore: checkpoint rename: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		return err
	}

	// Swap in the new base. The old store is retired, not closed:
	// snapshot cursors taken before this checkpoint keep decoding it.
	if e.store != nil {
		e.retired = append(e.retired, e.store)
	}
	e.decoded = nil
	if err := e.attach(); err != nil {
		return err
	}

	// Rebuild the tail in place (writers blocked on ingestMu resume
	// against the same liveTail): fresh shard maps hold only the
	// remainders, re-sealed at day granularity. The epoch keeps
	// counting — snapshots stay monotonic across the fold.
	lt.baseN = cut
	lt.baseIDs = make(map[timeseries.ID]int, e.store.consumers)
	for i, id := range e.store.ids {
		lt.baseIDs[id] = i
	}
	var remReadings int64
	for i := range lt.shards {
		lt.shards[i].m = make(map[timeseries.ID]*liveSeries)
	}
	for i := range items {
		it := &items[i]
		if len(it.rem) == 0 {
			continue
		}
		sh := &lt.shards[core.ShardFor(it.id, liveShards)]
		ls := &liveSeries{id: it.id, base: cut}
		rem := it.rem
		for len(rem) >= dayHours {
			ls.sealed = append(ls.sealed, sealedDay{payload: sh.enc.AppendValues(nil, rem[:dayHours])})
			rem = rem[dayHours:]
		}
		if len(rem) > 0 {
			ls.open = append([]float64(nil), rem...)
		}
		sh.m[it.id] = ls
		remReadings += int64(len(it.rem))
	}
	lt.tempTail = append([]float64(nil), fullTemp[cut:]...)
	lt.applied.Store(remReadings)

	// Shrink the log to the remainders. A crash between the segment
	// rename above and this rewrite is safe: the stale log replays
	// over the new base and every folded reading lands in the
	// duplicate no-op.
	if lt.wlog != nil {
		var batches [liveShards][][]core.Reading
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
			si := core.ShardFor(it.id, liveShards)
			batches[si] = append(batches[si], b)
		}
		for si := range batches {
			if err := lt.wlog.Rewrite(si, batches[si]); err != nil {
				return err
			}
		}
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
