// Package colstore implements the benchmark's "System C" analogue: a
// column store geared towards time series, now backed by a compressed
// block-structured segment format.
//
// It reproduces the traits the paper measures for System C:
//
//   - Load converts the text source into a compressed binary segment
//     file once (colcodec fixed-point, Gorilla-XOR, dictionary or
//     run-length values, lossless all four ways, on an implicit hourly
//     grid that stores no timestamps); subsequent loads read
//     only metadata — the cheap binary restart the paper credits to
//     memory-mapped I/O.
//   - Analytics run over per-consumer float64 columns decoded from
//     blocks, with the statistical operators hand-written (System C
//     ships no ML toolkit — every Table 1 cell in its column is "no").
//
// The segment file is the one read path. An attached engine keeps only
// metadata resident (temperature, directory, block headers); cursors
// read a consumer's payload area with one pread, through the OS page
// cache, and decode its blocks straight into the rows they yield. A
// shared block cache (pager.go) keeps decoded blocks while they fit a
// strict byte budget and evicts nothing; at the default budget of 0 it
// keeps none. So a dataset much larger than memory streams through the
// same pipeline. The paper's warm start is exec.Warm's, as on every
// engine: the cursors drained once into a packed dataset. Block headers
// carry NaN counts and min/max summaries, which the cursors hand out
// (core.SummaryCursor) and the exec layer's histogram uses to skip
// decoding.
package colstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Engine is the System C analogue.
type Engine struct {
	dir    string
	path   string
	budget int64
	store  *segStore
	pager  *pager

	// Durability (see live.go). walOn arms the write-ahead log under
	// walPolicy/walFS.
	walOn     bool
	walPolicy wal.SyncPolicy
	walFS     wal.FS

	// retired holds segment stores replaced by Checkpoint but kept
	// open so outstanding snapshot cursors stay readable; detach
	// closes them.
	retired []*segStore

	// liveMu guards lazy creation of the live tail; the tail has its
	// own internal locking (see live.go).
	liveMu sync.Mutex
	live   *liveTail
}

// Option configures an Engine.
type Option func(*Engine)

// WithMemBudget sets the decoded-block cache's byte budget: blocks are
// admitted while they fit and never evicted. The default, 0, caches
// nothing, so every read decodes from the file.
func WithMemBudget(bytes int64) Option {
	return func(e *Engine) {
		if bytes > 0 {
			e.budget = bytes
		}
	}
}

// WithWAL arms the write-ahead log: every Append is framed into one
// log, <dir>/wal/wal-000.log, before it is applied and acked, with the
// given fsync policy, and replayed through the idempotent append path
// on reopen. See internal/wal for the format and policy semantics.
func WithWAL(policy wal.SyncPolicy) Option {
	return func(e *Engine) {
		e.walOn = true
		e.walPolicy = policy
	}
}

// WithWALFS substitutes the filesystem under the write-ahead log — the
// crash-injection hook (fault.Disk). Implies nothing by itself; pair
// it with WithWAL.
func WithWALFS(fs wal.FS) Option {
	return func(e *Engine) { e.walFS = fs }
}

// SegmentFileName is the segment file's name under the engine
// directory. Out-of-band writers (smgen's segments format, the scaleup
// experiment) create it directly with NewSegmentWriter and attach via
// OpenExisting.
const SegmentFileName = "segments.col"

// New returns a column-store engine whose segment file lives under dir.
func New(dir string, opts ...Option) *Engine {
	e := &Engine{
		dir:  dir,
		path: filepath.Join(dir, SegmentFileName),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "colstore (System C analogue)" }

// Capabilities implements core.Engine (Table 1, System C column: all
// operators hand-written).
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Histogram:        core.SupportNone,
		Quantiles:        core.SupportNone,
		Regression:       core.SupportNone,
		CosineSimilarity: core.SupportNone,
	}
}

// Load implements core.Engine: it parses the text source once, streams
// the compressed segment file, and attaches it.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	if err := writeDataset(e.path, ds); err != nil {
		return nil, err
	}
	e.detach()
	if e.walOn {
		// The fresh base replaces whatever state an old log belonged
		// to; replaying it would corrupt the new dataset.
		if err := wal.Clear(e.walDir(), 1, e.walFS); err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
	}
	if err := e.attach(); err != nil {
		return nil, err
	}
	var readings int64
	for _, s := range ds.Series {
		readings += int64(len(s.Readings))
	}
	return &core.LoadStats{
		Consumers:    len(ds.Series),
		Readings:     readings,
		StorageBytes: e.store.fileSize,
		RawBytes:     e.store.rawBytes,
	}, nil
}

// writeDataset streams ds into a fresh segment file at path (written to
// a temp name, then renamed). CSV-parsed values are stored unquantized:
// the codec's fixed-point probe already round-trips the text-sourced
// decimals bit-exactly, so every engine reading the same source agrees.
func writeDataset(path string, ds *timeseries.Dataset) error {
	if len(ds.Series) == 0 {
		return fmt.Errorf("colstore: empty dataset")
	}
	n := len(ds.Temperature.Values)
	for _, s := range ds.Series {
		if len(s.Readings) != n {
			return fmt.Errorf("colstore: consumer %d has %d readings, temperature has %d",
				s.ID, len(s.Readings), n)
		}
	}
	tmp := path + ".tmp"
	w, err := NewSegmentWriter(tmp, ds.Temperature.Values)
	if err != nil {
		return err
	}
	for _, s := range ds.Series {
		if err := w.Append(s.ID, s.Readings); err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
	}
	if err := w.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return renameSynced(tmp, path, "rename segments")
}

// renameSynced renames tmp over path and fsyncs the directory so the
// rename survives a power failure. A failed rename removes tmp.
func renameSynced(tmp, path, what string) error {
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("colstore: %s: %w", what, err)
	}
	if err := wal.OSFS.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("colstore: sync dir: %w", err)
	}
	return nil
}

// walDir is where the engine's write-ahead log lives.
func (e *Engine) walDir() string { return filepath.Join(e.dir, "wal") }

// OpenExisting attaches an engine to a segment file that was written
// out-of-band (by a SegmentWriter — e.g. smgen's streaming generator)
// without re-ingesting any source, and reports its load stats. With
// the write-ahead log armed, any surviving log replays here: the
// reported readings include the recovered tail.
func (e *Engine) OpenExisting() (*core.LoadStats, error) {
	e.detach()
	if _, err := os.Stat(e.path); err != nil {
		return nil, fmt.Errorf("colstore: %w", core.ErrNotLoaded)
	}
	if err := e.attach(); err != nil {
		return nil, err
	}
	stats := &core.LoadStats{
		Consumers:    e.store.consumers,
		Readings:     int64(e.store.consumers) * int64(e.store.n),
		StorageBytes: e.store.fileSize,
		RawBytes:     e.store.rawBytes,
	}
	if e.walOn {
		lt, err := e.ensureLive()
		if err != nil {
			return nil, err
		}
		stats.Readings += lt.applied.Load()
	}
	return stats, nil
}

func (e *Engine) attach() error {
	st, err := openStore(e.path)
	if err != nil {
		return err
	}
	e.store, e.pager = st, newPager(st, e.budget)
	return nil
}

func (e *Engine) detach() {
	if e.store != nil {
		e.store.close()
	}
	for _, st := range e.retired {
		st.close()
	}
	e.retired = nil
	e.store = nil
	e.pager = nil
	e.liveMu.Lock()
	lt := e.live
	e.live = nil
	e.liveMu.Unlock()
	if lt != nil && lt.wlog != nil {
		// Clean shutdown: a final sync-and-close; errors are
		// best-effort here because detach has no error path, and the
		// log's contents survive for the next open regardless.
		_ = lt.wlog.Close()
	}
}

// Release implements core.Engine: drops the block cache and closes the
// file handle; the segment file stays on disk.
func (e *Engine) Release() error {
	e.detach()
	return nil
}

// ensureStorage attaches the segment file if it is not already.
func (e *Engine) ensureStorage() error {
	if e.store != nil {
		return nil
	}
	if _, err := os.Stat(e.path); err != nil {
		return fmt.Errorf("colstore: %w", core.ErrNotLoaded)
	}
	return e.attach()
}

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine: Run under a caller-supplied context
// governing cancellation and deadlines.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	return exec.RunContext(ctx, e, spec)
}

// NewCursors implements core.PartitionedSource: contiguous consumer
// ranges, each read one consumer per Next through the block cache and
// handing out block summaries (core.SummaryCursor). Partitions share
// the engine's block cache (the budget is global, not per-cursor).
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("colstore: NewCursors: max must be >= 1, got %d", max)
	}
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	curs := make([]core.Cursor, 0, max)
	for _, r := range core.PartitionRanges(e.store.consumers, max) {
		curs = append(curs, newPagedCursor(e.pager, r[0], r[1]))
	}
	return curs, nil
}

// Temperature implements core.Engine; the temperature column is always
// resident (one column per file, stored raw).
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	return &timeseries.Temperature{Values: e.store.temp}, nil
}

var _ core.Engine = (*Engine)(nil)

// NewSummaryCursor opens the engine's paged cursor over every consumer
// for a caller that reads block
// summaries (its core.SummaryCursor methods) and closes it.
func (e *Engine) NewSummaryCursor() (*pagedCursor, error) {
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	return newPagedCursor(e.pager, 0, e.store.consumers), nil
}

// PagerStats reports block-cache hits, misses and resident decoded
// bytes since the store was attached (all zero when detached). At
// budget 0 every block read is a miss.
func (e *Engine) PagerStats() (hits, misses, resident int64) {
	if e.pager == nil {
		return 0, 0, 0
	}
	return e.pager.Stats()
}

// MetaBytes reports the resident metadata footprint of the attached
// store (temperature + directory + block headers), 0 when detached.
func (e *Engine) MetaBytes() int64 {
	if e.store == nil {
		return 0
	}
	return e.store.metaBytes()
}

// errCorrupt reports a malformed segment file.
var errCorrupt = errors.New("colstore: corrupt segment file")

// Crash simulates a process death for recovery tests: every file
// handle drops with no flush, sync or checkpoint. The engine object is
// dead afterwards — recovery happens by opening a fresh engine over
// the same directory.
func (e *Engine) Crash() {
	e.liveMu.Lock()
	lt := e.live
	e.live = nil
	e.liveMu.Unlock()
	if lt != nil && lt.wlog != nil {
		lt.wlog.Drop()
	}
	if e.store != nil {
		e.store.close()
	}
	for _, st := range e.retired {
		st.close()
	}
	e.retired = nil
	e.store = nil
	e.pager = nil
}

// StorageBytes returns the size of the segment file on disk.
func (e *Engine) StorageBytes() (int64, error) {
	fi, err := os.Stat(e.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("colstore: %w", err)
	}
	return fi.Size(), nil
}
