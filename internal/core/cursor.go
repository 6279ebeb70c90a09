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
// again, through later Next calls and Close. The execution layer holds
// a block of series while the cursor advances to fill it, so a cursor
// must not recycle a buffer of its own from one series to the next.
// (A replay after Reset may decode the same values into the same
// buffers; nothing resets a cursor while holding series from it.)
// Recycling is the caller's to do, through RowTaker: a row the caller
// hands over is the caller's before and after, and the cursor writes it
// only inside the Next that yields it.
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
	// BindContext binds the run's context. The pipeline binds it before
	// the first Next; once the cursor observes the cancellation, Next
	// returns the context's error (CtxErr), and Close still releases
	// everything. An unbound cursor runs to the end.
	BindContext(ctx context.Context)
	// SizeHint returns the expected series count; ok is false when the
	// cursor cannot estimate it yet. Callers may size buffers by it but
	// must not rely on it being exact.
	SizeHint() (n int, ok bool)
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

// RowTaker is optionally implemented by cursors that decode every series
// into a row of the caller's: every row such a cursor yields is the
// caller's to keep or hand back. TakeRow hands such a cursor the row its
// next successful Next decodes into instead of allocating one; that Next
// overwrites every reading of the row, whatever it held, and yields a
// series whose Readings is row itself. A Next that fails keeps the row
// for the one after it, and a row whose length is not the series length
// is ignored; without a TakeRow the cursor allocates as before. The
// similarity drain (internal/exec) decodes every consumer into its slot
// of one row-major matrix this way, and the partition loop each block
// into the rows of the block it emitted before.
type RowTaker interface {
	TakeRow(row []float64)
}

// NewLazyCursor returns a cursor that materializes its series on first
// use by calling load once, then replays the buffered slice (Reset
// rewinds without re-running load). load receives the context
// BindContext bound, or context.Background() when none was, so long
// materializations — e.g. a simulated cluster job — can be cut short by
// cancellation. Its SizeHint is known once load has run: before the
// first Next it reports none. onClose, if non-nil,
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
