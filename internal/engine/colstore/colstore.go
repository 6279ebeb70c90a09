// Package colstore implements the benchmark's "System C" analogue: a
// column store geared towards time series, now backed by a compressed
// block-structured segment format.
//
// It reproduces the traits the paper measures for System C:
//
//   - Load converts the text source into a compressed binary segment
//     file once (colcodec delta-of-delta timestamps + fixed-point or
//     Gorilla-XOR values, lossless either way); subsequent loads read
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
// same pipeline. Warm at budget 0 decodes everything into one
// contiguous matrix that later runs read (the paper's warm start, which
// the similarity kernel adopts without a copy). Block headers carry
// min/max/sum/sumSq summaries that the exec layer uses for
// compressed-domain fast paths.
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
	dir     string
	path    string
	budget  int64
	store   *segStore
	pager   *pager
	decoded *timeseries.Dataset

	// Durability (see live.go). walOn arms the write-ahead log under
	// walPolicy/walFS; tailBudget (in tail readings) arms the
	// background-checkpoint trigger on ckptC.
	walOn      bool
	walPolicy  wal.SyncPolicy
	walFS      wal.FS
	tailBudget int64
	ckptC      chan struct{}

	// retired holds segment stores replaced by Checkpoint but kept
	// open so outstanding snapshot cursors stay readable; detach
	// closes them.
	retired []*segStore

	ckptErrMu sync.Mutex
	ckptErr   error

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

// WithWAL arms the write-ahead log: every Append is framed into a
// per-shard log under <dir>/wal before it is acked, with the given
// fsync policy, and replayed through the idempotent append path on
// reopen. See internal/wal for the format and policy semantics.
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

// WithTailBudget arms automatic background checkpointing: once the
// live tail holds at least this many readings, the engine signals the
// checkpointer goroutine (StartCheckpointer) to fold the tail into a
// fresh segment file. Zero disables the trigger.
func WithTailBudget(readings int64) Option {
	return func(e *Engine) {
		if readings > 0 {
			e.tailBudget = readings
		}
	}
}

// SegmentFileName is the segment file's name under the engine
// directory. Out-of-band writers (smgen's segments format, the scaleup
// experiment) create it directly with NewSegmentWriter and attach via
// OpenExisting.
const SegmentFileName = "segments.col"

// New returns a column-store engine whose segment file lives under dir.
func New(dir string, opts ...Option) *Engine {
	e := &Engine{
		dir:   dir,
		path:  filepath.Join(dir, SegmentFileName),
		ckptC: make(chan struct{}, 1),
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
		if err := wal.Clear(e.walDir(), liveShards, e.walFS); err != nil {
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
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("colstore: rename segments: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename into it survives a power
// failure — the second half of the temp-file-then-rename protocol.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("colstore: sync dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("colstore: sync dir: %w", err)
	}
	if err := d.Close(); err != nil {
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
	e.decoded = nil
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

// Warm readies the engine for hot runs. At budget 0 it decodes every
// consumer into one contiguous matrix that later runs read; above 0 it
// fills the block cache in scan order until the next consumer's first
// block would not be admitted, and the matrix never materializes.
func (e *Engine) Warm() error {
	if err := e.ensureStorage(); err != nil {
		return err
	}
	st := e.store
	if e.budget == 0 {
		ds, err := decodeAll(e.pager)
		if err != nil {
			return err
		}
		e.decoded = ds
		return nil
	}
	row := make([]float64, st.n)
	first := 8 * int64(min(st.blockRows, st.n)) // bytes of a consumer's first block
	var area []byte
	for c := 0; c < st.consumers; c++ {
		if _, _, resident := e.pager.Stats(); resident+first > e.budget {
			return nil
		}
		var err error
		if area, err = e.pager.readConsumer(c, row, area); err != nil {
			return err
		}
	}
	return nil
}

// Release implements core.Engine: drops the block cache and decoded
// columns, and closes the file handle; the segment file stays on disk.
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

// NewCursor implements core.Engine: the decoded columns after a Warm at
// budget 0, otherwise a cursor reading one consumer per Next through
// the block cache.
func (e *Engine) NewCursor() (core.Cursor, error) {
	if e.decoded != nil {
		return core.NewDatasetCursor(e.decoded), nil
	}
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	return newPagedCursor(e.pager, 0, e.store.consumers), nil
}

// NewCursors implements core.PartitionedSource: contiguous consumer
// ranges. Partitions share the engine's block cache (the budget is
// global, not per-cursor); after a Warm at budget 0 they are range
// shards of the decoded matrix.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("colstore: NewCursors: max must be >= 1, got %d", max)
	}
	if e.decoded != nil {
		series := e.decoded.Series
		curs := make([]core.Cursor, 0, max)
		for _, r := range core.PartitionRanges(len(series), max) {
			part := series[r[0]:r[1]]
			curs = append(curs, core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
				return part, nil
			}, nil))
		}
		return curs, nil
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

var _ core.PartitionedSource = (*Engine)(nil)

// Temperature implements core.Engine; the temperature column is always
// resident (one column per file, stored raw).
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if e.decoded != nil {
		return e.decoded.Temperature, nil
	}
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	return &timeseries.Temperature{Values: e.store.temp}, nil
}

var _ core.Engine = (*Engine)(nil)

// NewSummaryCursors implements core.SummarySource over the stored block
// headers: contiguous consumer ranges, the ones NewCursors cuts. The
// headers are resident metadata; a block a cursor is asked to decode is
// read straight from the store, never through the block cache.
func (e *Engine) NewSummaryCursors(max int) ([]core.SummaryCursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("colstore: NewSummaryCursors: max must be >= 1, got %d", max)
	}
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	curs := make([]core.SummaryCursor, 0, max)
	for _, r := range core.PartitionRanges(e.store.consumers, max) {
		curs = append(curs, newSummaryCursor(e.store, r[0], r[1]))
	}
	return curs, nil
}

var _ core.SummarySource = (*Engine)(nil)

// NewSummaryCursor is the one-partition form of NewSummaryCursors: the
// same cursor over every consumer.
func (e *Engine) NewSummaryCursor() (core.SummaryCursor, error) {
	if err := e.ensureStorage(); err != nil {
		return nil, err
	}
	return newSummaryCursor(e.store, 0, e.store.consumers), nil
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

// decodeAll materializes the dataset through p. All consumer columns
// decode into one contiguous row-major buffer, each series a
// back-to-back subslice of it. The similarity engine's FlatMatrix
// packing detects this layout and adopts it zero-copy — the column
// store hands its columns straight to the blocked kernel. (Consequently
// a row's slice capacity extends over later rows: never append to a
// decoded series' Readings in place.)
func decodeAll(p *pager) (*timeseries.Dataset, error) {
	st := p.st
	temp := &timeseries.Temperature{Values: st.temp}
	flat := make([]float64, st.consumers*st.n)
	series := make([]*timeseries.Series, st.consumers)
	var area []byte
	var err error
	for c := 0; c < st.consumers; c++ {
		row := flat[c*st.n : (c+1)*st.n]
		area, err = p.readConsumer(c, row, area)
		if err != nil {
			return nil, err
		}
		series[c] = &timeseries.Series{ID: st.ids[c], Readings: row}
	}
	return &timeseries.Dataset{Series: series, Temperature: temp}, nil
}

// AppendDelta implements core.DeltaAppender. The read-optimized
// segment file has no room to grow, so an append re-encodes every
// consumer — decode, extend, stream to a fresh file — deliberately
// expensive, illustrating the paper's §3 remark that read-optimized
// structures "may be expensive to update". The rewrite streams one
// consumer at a time, through a pager that caches nothing, so it never
// materializes the matrix. It refuses to run while an uncheckpointed
// live tail exists (see Append): the rewrite would collide with tail
// hours.
func (e *Engine) AppendDelta(delta *timeseries.Dataset) error {
	if err := e.ensureStorage(); err != nil {
		return err
	}
	if e.liveHours() > 0 {
		return fmt.Errorf("colstore: live tail present; Checkpoint before AppendDelta")
	}
	st := e.store
	if len(delta.Series) != st.consumers {
		return fmt.Errorf("colstore: delta has %d households, segments have %d",
			len(delta.Series), st.consumers)
	}
	byID := make(map[timeseries.ID]*timeseries.Series, len(delta.Series))
	for _, s := range delta.Series {
		byID[s.ID] = s
	}
	dn := len(delta.Temperature.Values)
	newTemp := make([]float64, 0, st.n+dn)
	newTemp = append(newTemp, st.temp...)
	newTemp = append(newTemp, delta.Temperature.Values...)
	tmp := e.path + ".tmp"
	w, err := NewSegmentWriter(tmp, newTemp, WithBlockRows(st.blockRows))
	if err != nil {
		return err
	}
	row := make([]float64, st.n+dn)
	base := newPager(st, 0)
	var area []byte
	for c := 0; c < st.consumers; c++ {
		id := st.ids[c]
		d, ok := byID[id]
		if !ok {
			_ = w.Close()
			_ = os.Remove(tmp)
			return fmt.Errorf("colstore: delta is missing household %d", id)
		}
		if len(d.Readings) != dn {
			_ = w.Close()
			_ = os.Remove(tmp)
			return fmt.Errorf("colstore: delta household %d has %d readings, temperature has %d",
				id, len(d.Readings), dn)
		}
		area, err = base.readConsumer(c, row[:st.n], area)
		if err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
		copy(row[st.n:], d.Readings)
		if err := w.Append(id, row); err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
	}
	if err := w.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, e.path); err != nil {
		return fmt.Errorf("colstore: rewrite segments: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		return err
	}
	e.detach()
	return e.attach()
}

var _ core.DeltaAppender = (*Engine)(nil)

// StartCheckpointer runs background checkpointing until ctx is
// cancelled: whenever the live tail crosses the WithTailBudget
// threshold, the tail is folded into a fresh segment file and the
// write-ahead log is rewritten down to the remainders. The returned
// channel closes when the goroutine has exited (leak-free tests wait
// on it). Checkpoint errors are recorded for CheckpointErr — the
// ingestion path keeps running, bounded-loss, until the next trigger
// retries.
func (e *Engine) StartCheckpointer(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-e.ckptC:
				if err := e.Checkpoint(); err != nil {
					e.ckptErrMu.Lock()
					e.ckptErr = err
					e.ckptErrMu.Unlock()
				}
			}
		}
	}()
	return done
}

// CheckpointErr returns the most recent background-checkpoint failure,
// nil if none.
func (e *Engine) CheckpointErr() error {
	e.ckptErrMu.Lock()
	defer e.ckptErrMu.Unlock()
	return e.ckptErr
}

// triggerCheckpoint signals the checkpointer without blocking; a
// pending signal already covers the crossing.
func (e *Engine) triggerCheckpoint() {
	select {
	case e.ckptC <- struct{}{}:
	default:
	}
}

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
	e.decoded = nil
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
