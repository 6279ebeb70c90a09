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
// size).
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
	// checkpoints. tailBudget (in live readings) arms the
	// background-checkpoint trigger on ckptC.
	walOn      bool
	walPolicy  wal.SyncPolicy
	walFS      wal.FS
	wlog       *wal.Log
	tailBudget int64
	ckptC      chan struct{}
	// ckptAppended is ls.appended at the last checkpoint; the trigger
	// fires on the difference. Guarded by readMu.
	ckptAppended int64

	ckptErrMu sync.Mutex
	ckptErr   error

	pf    *pagedFile
	bp    *bufferPool
	table *table
	ids   []timeseries.ID
	cache *timeseries.Dataset
	// temp is the temperature column, published once by whichever reader
	// decodes it first and cleared with the state it was read from.
	temp atomic.Pointer[timeseries.Temperature]

	// readMu is the table latch. Every cursor's Next holds it shared for
	// one consumer, so extraction runs on as many cores as there are
	// cursors; everything that changes pages, the tree's shape, live, pf
	// or table (Append, Checkpoint, AppendDelta, Release, Close,
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

// WithTailBudget arms automatic background checkpointing: once at
// least this many readings have been appended since the last
// checkpoint, the engine signals the checkpointer goroutine
// (StartCheckpointer) to fold them into the table file. Zero disables
// the trigger.
func WithTailBudget(readings int64) Option {
	return func(e *Engine) {
		if readings > 0 {
			e.tailBudget = readings
		}
	}
}

// New returns a row-store engine whose storage lives under dir.
func New(dir string, opts ...Option) *Engine {
	e := &Engine{
		dir:       dir,
		layout:    LayoutRows,
		poolPages: DefaultPoolPages,
		ckptC:     make(chan struct{}, 1),
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

// Load implements core.Engine: it bulk-loads the CSV source into heap
// pages and builds the household B+tree, tuple by tuple — the cost
// profile behind the paper's Figure 4 MADLib bars.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	if err := e.closeStorage(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	path := filepath.Join(e.dir, "table.db")
	if err := os.RemoveAll(path); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	pf, err := openPagedFile(path)
	if err != nil {
		return nil, err
	}
	bp := newBufferPool(pf, e.poolPages)
	bp.noSteal = e.walOn
	// Page 0 is reserved for the meta page.
	metaFr, err := bp.allocate()
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	bp.unpin(metaFr, true)
	heap, err := newHeapFile(bp)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	idx, err := newBTree(bp)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	tb := &table{layout: e.layout, heap: heap, index: idx}

	// The source may be one big CSV or many small files; bulk loading
	// one big file is faster for the DBMS (paper §5.3.1), a difference
	// that emerges naturally from per-file open/parse overhead.
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	var readings int64
	for _, s := range ds.Series {
		if err := tb.insertSeries(s, ds.Temperature); err != nil {
			_ = pf.close()
			return nil, err
		}
		readings += int64(len(s.Readings))
	}
	if err := writeMeta(bp, metaPage{
		layout:    tb.layout,
		heapFirst: heap.first,
		heapLast:  heap.last,
		tuples:    heap.tuples,
		root:      idx.root,
		height:    idx.height,
		seriesLen: tb.seriesLen,
		consumers: tb.consumers,
	}); err != nil {
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
	e.cache = nil
	e.temp.Store(ds.Temperature)
	return &core.LoadStats{
		Consumers:    len(ds.Series),
		Readings:     readings,
		StorageBytes: pf.sizeBytes(),
	}, nil
}

// Open re-attaches the engine to storage previously written by Load in
// the same directory, without re-ingesting any data — the durability
// path a restarted database server takes.
func (e *Engine) Open() error {
	if err := e.closeStorage(); err != nil {
		return err
	}
	pf, err := openPagedFile(filepath.Join(e.dir, "table.db"))
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
	ids, err := tb.distinctIDs()
	if err != nil {
		_ = pf.close()
		return err
	}
	e.layout = m.layout
	e.pf, e.bp, e.table = pf, bp, tb
	e.ids = ids
	e.cache = nil
	e.temp.Store(nil)
	return nil
}

// Warm implements the benchmark's warm start: it extracts every series
// from the stored pages into memory (the paper's "run SELECT queries to
// extract the data we need").
func (e *Engine) Warm() error {
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	ds, err := e.materialize()
	if err != nil {
		return err
	}
	e.cache = ds
	return nil
}

// Release implements core.Engine: drops the tuple cache and empties the
// buffer pool, so the next Run pays cold-start I/O again. With the
// write-ahead log armed, the pool's dirty pages cannot be written back
// in place (no-steal), so a checkpoint folds them atomically first.
func (e *Engine) Release() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	e.cache = nil
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
	e.cache = nil
	e.temp.Store(nil)
	e.live = nil
	e.ckptAppended = 0
	return first
}

// materialize extracts the full dataset from stored tuples.
func (e *Engine) materialize() (*timeseries.Dataset, error) {
	series := make([]*timeseries.Series, 0, len(e.ids))
	for _, id := range e.ids {
		s, err := e.readSeriesShared(id, basePrefix)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	temp := e.temp.Load()
	if temp == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	return &timeseries.Dataset{Series: series, Temperature: temp}, nil
}

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline. Cold runs extract each consumer with an
// index scan, a heap page at a time; warm runs reuse the in-memory
// arrays built by Warm.
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

// NewCursor implements core.Engine: in-memory arrays after Warm,
// otherwise one index-scan cursor through the buffer pool.
func (e *Engine) NewCursor() (core.Cursor, error) {
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	if e.cache != nil {
		return core.NewDatasetCursor(e.cache), nil
	}
	return &scanCursor{e: e}, nil
}

// NewCursors implements core.PartitionedSource: contiguous household
// ranges of the sorted ID list, which are contiguous heap-page ranges
// because Load inserts tuples in household order. The range cursors
// read concurrently through readSeriesShared, each holding the table
// latch shared and at most two pins (a leaf and a heap page), so the
// pool caps how many are handed out: a parallel run must not exhaust a
// pool the serial run fits in.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("rowstore: NewCursors: max must be >= 1, got %d", max)
	}
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	if e.cache != nil {
		series := e.cache.Series
		curs := make([]core.Cursor, 0, max)
		for _, r := range core.PartitionRanges(len(series), max) {
			part := series[r[0]:r[1]]
			curs = append(curs, core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
				return part, nil
			}, nil))
		}
		return curs, nil
	}
	if max = min(max, e.poolPages/2); max < 1 {
		max = 1
	}
	curs := make([]core.Cursor, 0, max)
	for _, r := range core.PartitionRanges(len(e.ids), max) {
		curs = append(curs, &rangeCursor{e: e, lo: r[0], hi: r[1]})
	}
	return curs, nil
}

var _ core.PartitionedSource = (*Engine)(nil)

// basePrefix asks readSeriesShared for the published seriesLen prefix.
const basePrefix = -1

// readSeriesShared is the one extraction path every cursor uses: it
// holds the table latch shared across one consumer's index scan and
// tuple decode. A base read (upTo == basePrefix) returns the published
// prefix — live-appended tuples beyond it (see live.go) are invisible
// until a bulk AppendDelta or reload publishes a new length — and
// decodes the temperature column alongside while the engine has none. A
// snapshot read passes the household length it captured, so tuples
// appended after the capture are skipped.
func (e *Engine) readSeriesShared(id timeseries.ID, upTo int) (*timeseries.Series, error) {
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
	cons := make([]float64, upTo)
	if err := tb.readSeriesInto(id, cons, temp); err != nil {
		return nil, err
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
	if e.cache != nil {
		return e.cache.Temperature, nil
	}
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	if t := e.temp.Load(); t != nil {
		return t, nil
	}
	if len(e.ids) == 0 {
		return nil, fmt.Errorf("rowstore: table holds no households")
	}
	if _, err := e.readSeriesShared(e.ids[0], basePrefix); err != nil {
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

// AppendDelta implements core.DeltaAppender: new readings become
// ordinary tuple inserts (cheap — the write-optimized side of the
// trade-off). It refuses to run while live-ingested tuples exist (see
// Append in live.go): delta hours would collide with live hours.
func (e *Engine) AppendDelta(delta *timeseries.Dataset) error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	if e.walOn {
		// An unreplayed log may hold live tuples the length checks below
		// cannot see; materialize the live state (replaying the log)
		// before deciding the delta is collision-free.
		if _, err := e.ensureLive(); err != nil {
			return err
		}
	}
	if e.live != nil && e.live.appended > 0 {
		return fmt.Errorf("rowstore: live tuples present; AppendDelta is unsupported after live Append")
	}
	if len(delta.Series) != len(e.ids) {
		return fmt.Errorf("rowstore: delta has %d households, table has %d", len(delta.Series), len(e.ids))
	}
	n := len(delta.Temperature.Values)
	for _, s := range delta.Series {
		if len(s.Readings) != n {
			return fmt.Errorf("rowstore: delta household %d has %d readings, temperature has %d",
				s.ID, len(s.Readings), n)
		}
	}
	for _, s := range delta.Series {
		if err := e.table.appendReadings(s.ID, s.Readings, delta.Temperature.Values); err != nil {
			return err
		}
	}
	e.table.setSeriesLen(e.table.seriesLen + n)
	e.cache = nil
	e.temp.Store(nil)
	e.live = nil // series lengths changed; rebuild lazily
	if err := writeMeta(e.bp, metaPage{
		layout:    e.table.layout,
		heapFirst: e.table.heap.first,
		heapLast:  e.table.heap.last,
		tuples:    e.table.heap.tuples,
		root:      e.table.index.root,
		height:    e.table.index.height,
		seriesLen: e.table.seriesLen,
		consumers: e.table.consumers,
	}); err != nil {
		return err
	}
	if e.walOn && e.wlog != nil {
		// Bulk deltas never ride the log; a checkpoint makes them
		// durable with the same atomic rewrite an Append fold uses.
		e.ckptAppended = 0
		return e.checkpointLocked()
	}
	return nil
}

var _ core.DeltaAppender = (*Engine)(nil)

// StorageBytes returns the current size of the engine's table file.
func (e *Engine) StorageBytes() int64 {
	if e.pf == nil {
		return 0
	}
	return e.pf.sizeBytes()
}
