package rowstore

import (
	"context"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// scanCursor extracts one consumer per Next with an index scan through
// the buffer pool — the engine's native cold path. Every read goes
// through readSeriesShared, which holds the table latch shared for one
// consumer: a single cursor is one connection, and partition cursors
// (rangeCursor) run their index scans side by side through the same
// pool the way concurrent connections share shared_buffers.
type scanCursor struct {
	e      *Engine
	ctx    context.Context
	i      int
	closed bool
}

func (c *scanCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *scanCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.e.ids) {
		return nil, io.EOF
	}
	s, err := c.e.readSeriesShared(c.e.ids[c.i], basePrefix)
	if err != nil {
		return nil, err
	}
	c.i++
	return s, nil
}

func (c *scanCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *scanCursor) Close() error {
	c.closed = true
	return nil
}

// SizeHint is exact: the B+tree knows every household.
func (c *scanCursor) SizeHint() (int, bool) { return len(c.e.ids), true }

// rangeCursor is one partition of the heap: the households whose rank in
// the sorted ID list falls into [lo, hi). Tuples are bulk-loaded in
// ascending household order, so a contiguous ID range is a contiguous
// heap-page range — partition cursors mostly touch disjoint pages and
// meet only in the pool's short mutex, once per page.
type rangeCursor struct {
	e      *Engine
	ctx    context.Context
	lo, hi int
	i      int
	closed bool
}

func (c *rangeCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *rangeCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.lo+c.i >= c.hi {
		return nil, io.EOF
	}
	s, err := c.e.readSeriesShared(c.e.ids[c.lo+c.i], basePrefix)
	if err != nil {
		return nil, err
	}
	c.i++
	return s, nil
}

func (c *rangeCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *rangeCursor) Close() error {
	c.closed = true
	return nil
}

func (c *rangeCursor) SizeHint() (int, bool) { return c.hi - c.lo, true }
