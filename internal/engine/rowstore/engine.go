package rowstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// DefaultPoolPages is the default buffer pool capacity (3072 pages =
// 24 MiB, echoing the paper's shared_buffers=3072MB scaled to bench
// size). Frames are made as pages are first read. A cursor's heap walk
// reads through its own 256 KiB ring instead, so the pool holds what
// descents from the root, the index phase (a live household's leaves
// and heap pages), writers and Temperature touch.
const DefaultPoolPages = 3072

// Engine is the PostgreSQL/MADLib analogue.
type Engine struct {
	dir       string
	layout    Layout
	poolPages int

	// Durability (see durable.go). walOn arms a single-shard
	// write-ahead log under walPolicy/walFS — one shard because this
	// engine's writers already serialize on readMu — and switches the
	// buffer pool to no-steal so the table file changes only at
	// checkpoints.
	walOn     bool
	walPolicy wal.SyncPolicy
	walFS     wal.FS
	wlog      *wal.Log

	pf    *pagedFile
	bp    *bufferPool
	table *table
	ids   []timeseries.ID
	// temp is the temperature column, published once by whichever reader
	// decodes it first and cleared with the state it was read from.
	temp atomic.Pointer[timeseries.Temperature]

	// readMu is the table latch. Every cursor's Next holds it shared for
	// one consumer, so extraction runs on as many cores as there are
	// cursors; everything that changes pages, the tree's shape, live, pf
	// or table (Append, Checkpoint, Release, Close,
	// ensureLive, Snapshot's capture) holds it exclusively. Pages and
	// tree are therefore frozen while any reader is inside — the latch
	// covers a live store's B+tree descent too, no crabbing — and a pin
	// only keeps a frame from eviction. Append holds it across a whole
	// batch, so a snapshot (or any reader) observes batches atomically.
	// It is taken before the pool mutex, never the other way round, and
	// the pool mutex is never held across a page read.
	readMu sync.RWMutex

	// live is the lazily built live-ingestion state (live.go), guarded
	// by readMu.
	live *liveState
}

// Option configures the engine.
type Option func(*Engine)

// WithLayout selects the physical schema (default LayoutRows).
func WithLayout(l Layout) Option { return func(e *Engine) { e.layout = l } }

// WithPoolPages sets the buffer pool capacity in pages.
func WithPoolPages(n int) Option { return func(e *Engine) { e.poolPages = n } }

// WithWAL arms the write-ahead log: every Append is framed into a log
// under <dir>/wal before it is acked, with the given fsync policy, and
// replayed through the idempotent append path on reopen. See
// internal/wal for the format and policy semantics.
func WithWAL(policy wal.SyncPolicy) Option {
	return func(e *Engine) {
		e.walOn = true
		e.walPolicy = policy
	}
}

// WithWALFS substitutes the filesystem under the write-ahead log — the
// crash-injection hook (fault.Disk). Pair it with WithWAL.
func WithWALFS(fs wal.FS) Option {
	return func(e *Engine) { e.walFS = fs }
}

// TableFileName is the table file's name under the engine directory.
const TableFileName = "table.db"

// New returns a row-store engine whose storage lives under dir.
func New(dir string, opts ...Option) *Engine {
	e := &Engine{
		dir:       dir,
		layout:    LayoutRows,
		poolPages: DefaultPoolPages,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("rowstore/%s (PostgreSQL-MADLib analogue)", e.layout)
}

// Capabilities implements core.Engine (Table 1, MADLib column).
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Histogram:        core.SupportBuiltin,
		Quantiles:        core.SupportBuiltin,
		Regression:       core.SupportBuiltin,
		CosineSimilarity: core.SupportNone,
	}
}

// Load implements core.Engine: it bulk-loads the CSV source as
// PostgreSQL's COPY followed by CREATE INDEX does — the cost profile
// behind the paper's Figure 4 MADLib bars. COPY appends a household's
// tuples after the last's, a heap page at a time (heapLoader); CREATE
// INDEX then builds the household B+tree from one scan of the heap,
// whose keys, ascending, go onto the rightmost leaf without a descent
// (btree.insert). The heap is one run of pages clustered on household,
// with the index after it.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	if err := e.closeStorage(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	path := filepath.Join(e.dir, TableFileName)
	if err := os.RemoveAll(path); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	pf, err := openPagedFile(path)
	if err != nil {
		return nil, err
	}
	bp := newBufferPool(pf, e.poolPages)
	bp.noSteal = e.walOn

	// The source may be one big CSV or many small files; bulk loading
	// one big file is faster for the DBMS (paper §5.3.1), a difference
	// that emerges naturally from per-file open/parse overhead.
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	tb, err := loadTable(bp, e.layout, ds)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	if e.walOn {
		// The fresh base is a durability point: everything on disk and
		// fsynced, and any old log — which belonged to replaced state —
		// cleared so it cannot replay into the new table.
		if err := bp.flush(); err != nil {
			_ = pf.close()
			return nil, err
		}
		if err := pf.sync(); err != nil {
			_ = pf.close()
			return nil, err
		}
		if err := wal.Clear(e.walDir(), 1, e.walFS); err != nil {
			_ = pf.close()
			return nil, fmt.Errorf("rowstore: %w", err)
		}
	}
	e.pf, e.bp, e.table = pf, bp, tb
	e.ids = nil
	for _, s := range ds.Series {
		e.ids = append(e.ids, s.ID)
	}
	e.temp.Store(ds.Temperature)
	return &core.LoadStats{
		Consumers:    len(ds.Series),
		Readings:     int64(tb.seriesLen) * int64(len(ds.Series)),
		StorageBytes: pf.sizeBytes(),
	}, nil
}

// loadTable stores ds in a fresh table file behind bp: the meta page,
// then COPY, the households' tuples in the dataset's order through one
// heapLoader, then CREATE INDEX (buildIndex), and the meta page written
// last.
func loadTable(bp *bufferPool, layout Layout, ds *timeseries.Dataset) (*table, error) {
	// Page 0 is reserved for the meta page.
	metaFr, err := bp.allocate()
	if err != nil {
		return nil, err
	}
	bp.unpin(metaFr, true)
	heap, err := newHeapFile(bp)
	if err != nil {
		return nil, err
	}
	tb := &table{layout: layout, heap: heap}
	copyIn := &heapLoader{h: heap}
	for _, s := range ds.Series {
		if err := tb.insertSeries(copyIn, s, ds.Temperature); err != nil {
			copyIn.close()
			return nil, err
		}
	}
	copyIn.close()
	if err := tb.buildIndex(); err != nil {
		return nil, err
	}
	return tb, writeMeta(bp, tb.meta())
}

// Open re-attaches the engine to storage previously written by Load in
// the same directory, without re-ingesting any data — the durability
// path a restarted database server takes. The base view is the one
// before Close: the loaded households at the published series length.
// Live-appended tuples stay stored, for Snapshot and the next Append.
func (e *Engine) Open() error {
	if err := e.closeStorage(); err != nil {
		return err
	}
	pf, err := openPagedFile(filepath.Join(e.dir, TableFileName))
	if err != nil {
		return err
	}
	if pf.nPages == 0 {
		_ = pf.close()
		return fmt.Errorf("rowstore: %s holds no data", e.dir)
	}
	bp := newBufferPool(pf, e.poolPages)
	bp.noSteal = e.walOn
	m, err := readMeta(bp)
	if err != nil {
		_ = pf.close()
		return err
	}
	heap := &heapFile{bp: bp, first: m.heapFirst, last: m.heapLast, tuples: m.tuples}
	idx := openBTree(bp, m.root, m.height)
	tb := &table{
		layout:    m.layout,
		heap:      heap,
		index:     idx,
		seriesLen: m.seriesLen,
		consumers: m.consumers,
	}
	ids, err := tb.baseIDs()
	if err != nil {
		_ = pf.close()
		return err
	}
	e.layout = m.layout
	e.pf, e.bp, e.table = pf, bp, tb
	e.ids = ids
	e.temp.Store(nil)
	return nil
}

// Release implements core.Engine: drops the temperature column and
// empties the buffer pool, so the next Run pays cold-start I/O again. With the
// write-ahead log armed, the pool's dirty pages cannot be written back
// in place (no-steal), so a checkpoint folds them atomically first.
func (e *Engine) Release() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	e.temp.Store(nil)
	if e.bp == nil {
		return nil
	}
	if e.walOn && e.wlog != nil {
		if err := e.checkpointLocked(); err != nil {
			return err
		}
	}
	return e.bp.reset()
}

// Close flushes and closes the underlying file.
func (e *Engine) Close() error { return e.closeStorage() }

func (e *Engine) closeStorage() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.pf == nil {
		return nil
	}
	var first error
	if e.walOn && e.wlog != nil {
		// Clean shutdown with a log open: fold the pool's dirty pages
		// atomically (no-steal pools must not flush in place) and
		// truncate the log. On failure fall through to the plain flush —
		// the log survives on disk and replays next open.
		first = e.checkpointLocked()
	}
	if err := e.bp.flush(); err != nil && first == nil {
		first = err
	}
	if e.wlog != nil {
		if err := e.wlog.Close(); err != nil && first == nil {
			first = err
		}
		e.wlog = nil
	}
	if err := e.pf.close(); err != nil && first == nil {
		first = err
	}
	e.pf, e.bp, e.table = nil, nil, nil
	e.temp.Store(nil)
	e.live = nil
	return first
}

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline. Cold runs extract each consumer with a
// descent of the index and a walk along its run of heap pages, a heap
// page at a time.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine: Run under a caller-supplied context
// governing cancellation and deadlines.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	return exec.RunContext(ctx, e, spec)
}

// NewCursors implements core.PartitionedSource: contiguous household
// ranges of the sorted ID list, which are contiguous heap-page ranges
// because Load stores each household's tuples as one run, in household
// order. Each range cursor extracts one consumer per Next — a descent
// of the index, then a walk along the household's run of heap pages —
// and the cursors read concurrently through readSeriesShared, each
// holding the table latch shared and at most two pins on pool frames (a
// leaf and a heap page; what it reads through its own ring is outside
// the pool), so the pool caps how many are handed out: a parallel run
// must not exhaust a pool the serial run fits in.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("rowstore: NewCursors: max must be >= 1, got %d", max)
	}
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	return e.rangeCursors(e.ids, nil, max), nil
}

// rangeCursors splits ids into up to rangesFor(len(ids), max) range
// cursors reading the lengths in lens (nil: the published prefix).
func (e *Engine) rangeCursors(ids []timeseries.ID, lens map[timeseries.ID]int, max int) []core.Cursor {
	ranges := e.rangesFor(len(ids), max)
	curs := make([]core.Cursor, 0, len(ranges))
	for _, r := range ranges {
		curs = append(curs, &rangeCursor{e: e, ids: ids[r[0]:r[1]], lens: lens})
	}
	return curs
}

// rangesFor splits n households into up to max contiguous ranges, and
// into no more than half the pool's pages: a cursor reading a range
// pins at most two frames at a time.
func (e *Engine) rangesFor(n, max int) [][2]int {
	if max = min(max, e.poolPages/2); max < 1 {
		max = 1
	}
	return core.PartitionRanges(n, max)
}

// basePrefix asks readSeriesShared for the published seriesLen prefix.
const basePrefix = -1

// readSeriesShared is the one extraction path every cursor uses: it
// holds the table latch shared across one consumer's read, its
// descents, heap walk and tuple decode (readSeriesInto). A base read
// (upTo == basePrefix) returns the published prefix — live-appended
// tuples beyond it (see live.go) are invisible to it, across a
// Checkpoint and a reopen alike, since only Load publishes a length —
// and decodes the temperature column alongside while the engine has
// none. A snapshot read passes the household length it captured, so
// tuples appended after the capture are skipped. A cursor passes its
// reader: the series decodes into the row it took, when that has the
// length, and its heap walk reads through the cursor's ring; other
// callers pass nil and read through the pool into a fresh row. A taken
// row may hold an earlier series: the read overwrites every hour, and
// hours the household does not store read as zero (seriesRead.read).
func (e *Engine) readSeriesShared(id timeseries.ID, upTo int, rd *reader) (*timeseries.Series, error) {
	e.readMu.RLock()
	defer e.readMu.RUnlock()
	tb := e.table
	if tb == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	var temp []float64
	if upTo == basePrefix {
		upTo = tb.seriesLen
		if e.temp.Load() == nil {
			temp = make([]float64, upTo)
		}
	}
	var cons []float64
	var rg *pageRing
	if rd != nil {
		if len(rd.row) == upTo {
			cons = rd.row
		}
		rg = rd.ringFor(e.bp)
	}
	if cons == nil {
		cons = make([]float64, upTo)
	}
	if err := tb.readSeriesInto(rg, id, cons, temp); err != nil {
		return nil, err
	}
	if rd != nil {
		rd.row = nil
	}
	if temp != nil {
		e.temp.CompareAndSwap(nil, &timeseries.Temperature{Values: temp})
	}
	return &timeseries.Series{ID: id, Readings: cons}, nil
}

// Temperature implements core.Engine. The temperature column is read
// alongside the first consumer's tuples and cached until the next
// Load/Open/Release.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	if t := e.temp.Load(); t != nil {
		return t, nil
	}
	if len(e.ids) == 0 {
		return nil, fmt.Errorf("rowstore: table holds no households")
	}
	if _, err := e.readSeriesShared(e.ids[0], basePrefix, nil); err != nil {
		return nil, err
	}
	return e.temp.Load(), nil
}

// Layout returns the engine's physical schema.
func (e *Engine) Layout() Layout { return e.layout }

// PoolStats returns buffer pool hit/miss counters for diagnostics.
func (e *Engine) PoolStats() (hits, misses int64) {
	e.readMu.RLock()
	defer e.readMu.RUnlock()
	if e.bp == nil {
		return 0, 0
	}
	return e.bp.stats()
}

var _ core.Engine = (*Engine)(nil)

// StorageBytes returns the current size of the engine's table file.
func (e *Engine) StorageBytes() int64 {
	if e.pf == nil {
		return 0
	}
	return e.pf.sizeBytes()
}
