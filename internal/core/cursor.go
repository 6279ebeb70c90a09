package core

import (
	"context"
	"io"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Cursor streams consumer series one at a time out of an engine's native
// storage. It is the engine half of the shared execution pipeline
// (internal/exec): the engine owns extraction — file streaming, index
// scans, tuple decode, columnar decode, or a cluster job — and the
// pipeline owns task dispatch, parallel compute, and result assembly.
//
// Next returns io.EOF after the last series. Cursors must yield series
// in ascending household-ID order so that every engine produces the
// bit-identical result order the integration tests pin. A Cursor is not
// safe for concurrent use; the pipeline drives it from a single
// goroutine.
//
// A yielded series stays valid: once Next has returned a
// *timeseries.Series, the cursor never writes to it or to its Readings
// again, through later Next calls and Close. At more than one worker
// the pipeline holds up to two blocks of series per cursor and one per
// worker while the cursor keeps advancing, so a cursor that decodes into
// a buffer must take a fresh one per series rather than recycle it. (A
// replay after Reset may decode the same values into the same buffers;
// nothing resets a cursor while holding series from it.)
type Cursor interface {
	// Next returns the next consumer's series, or io.EOF when the cursor
	// is exhausted (or closed).
	Next() (*timeseries.Series, error)
	// Reset rewinds the cursor so the next Next replays the sequence
	// from the beginning, yielding identical values.
	Reset() error
	// Close releases any resources held by the cursor. Close is
	// idempotent; after Close, Next reports io.EOF.
	Close() error
}

// ContextCursor is optionally implemented by cursors that can honor
// cancellation inside Next — long index builds, per-consumer storage
// scans, cluster collect jobs. The pipeline binds its run context once
// before driving the cursor; a bound cursor returns the context's
// error from Next as soon as it observes the cancellation, leaving the
// cursor in a state where Close still releases everything.
type ContextCursor interface {
	BindContext(ctx context.Context)
}

// BindContext binds ctx to cur when the cursor supports it; cursors
// without context support are driven as before, with the pipeline
// checking the context between Next calls.
func BindContext(cur Cursor, ctx context.Context) {
	if b, ok := cur.(ContextCursor); ok {
		b.BindContext(ctx)
	}
}

// CtxErr reports the bound context's cancellation error, tolerating an
// unbound (nil) context — the state of a cursor BindContext never
// reached. Engine cursors call it at the top of Next.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Skipper is optionally implemented by cursors that can abandon the
// consumer a transient error left them positioned on (the transient
// ConsumerError contract keeps the cursor in place so Next can retry).
// The pipeline calls Skip when retries are exhausted, quarantining the
// consumer; without Skip support a persistent transient error is fatal
// because the cursor cannot make progress.
type Skipper interface {
	// Skip advances past the current (failing) consumer.
	Skip() error
}

// SizeHinter is optionally implemented by cursors that can cheaply
// estimate how many series they will yield; consumers may use the hint
// to size buffers but must not rely on it being exact.
type SizeHinter interface {
	// SizeHint returns the expected series count; ok is false when the
	// cursor cannot estimate it yet.
	SizeHint() (n int, ok bool)
}

// DatasetCursor is optionally implemented by cursors backed by a fully
// materialized in-memory dataset (warm engines). The pipeline uses it to
// run whole-dataset tasks (similarity) without re-copying series, which
// preserves the dataset's cached flat-matrix packing.
type DatasetCursor interface {
	Cursor
	// Dataset returns the backing dataset. Callers must treat it as
	// read-only.
	Dataset() *timeseries.Dataset
}

// NewDatasetCursor returns a cursor over an in-memory dataset, yielding
// ds.Series in order.
func NewDatasetCursor(ds *timeseries.Dataset) DatasetCursor {
	return &datasetCursor{ds: ds}
}

type datasetCursor struct {
	ds     *timeseries.Dataset
	ctx    context.Context
	i      int
	closed bool
}

func (c *datasetCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *datasetCursor) Next() (*timeseries.Series, error) {
	if err := CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.ds.Series) {
		return nil, io.EOF
	}
	s := c.ds.Series[c.i]
	c.i++
	return s, nil
}

func (c *datasetCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *datasetCursor) Close() error {
	c.closed = true
	return nil
}

func (c *datasetCursor) Dataset() *timeseries.Dataset { return c.ds }

func (c *datasetCursor) SizeHint() (int, bool) { return len(c.ds.Series), true }

// NewLazyCursor returns a cursor that materializes its series on first
// use by calling load once, then replays the buffered slice (Reset
// rewinds without re-running load). load receives the cursor's bound
// context (never nil) so long materializations — e.g. a simulated
// cluster job — can be cut short by cancellation. onClose, if non-nil,
// runs exactly once, on the first Close — engines use it to release
// resources the load pinned (e.g. cached cluster partitions).
func NewLazyCursor(load func(ctx context.Context) ([]*timeseries.Series, error), onClose func()) Cursor {
	return &lazyCursor{load: load, onClose: onClose}
}

type lazyCursor struct {
	load    func(ctx context.Context) ([]*timeseries.Series, error)
	onClose func()
	ctx     context.Context
	series  []*timeseries.Series
	loaded  bool
	i       int
	closed  bool
}

func (c *lazyCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *lazyCursor) Next() (*timeseries.Series, error) {
	if err := CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed {
		return nil, io.EOF
	}
	if !c.loaded {
		ctx := c.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		series, err := c.load(ctx)
		if err != nil {
			return nil, err
		}
		c.series, c.loaded = series, true
	}
	if c.i >= len(c.series) {
		return nil, io.EOF
	}
	s := c.series[c.i]
	c.i++
	return s, nil
}

func (c *lazyCursor) Reset() error {
	c.i = 0
	return nil
}

func (c *lazyCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.series = nil
	if c.onClose != nil {
		c.onClose()
	}
	return nil
}

func (c *lazyCursor) SizeHint() (int, bool) {
	if !c.loaded {
		return 0, false
	}
	return len(c.series), true
}
