package rowstore

import (
	"context"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// reader is what a cursor brings to readSeriesShared: the row its next
// Next decodes into (core.RowTaker) and the ring its scans read through
// (ring.go).
type reader struct {
	row  []float64
	ring *pageRing
}

// TakeRow implements core.RowTaker.
func (rd *reader) TakeRow(row []float64) { rd.row = row }

// ringFor returns the ring to read bp through, made on first use.
// Callers hold the table latch.
func (rd *reader) ringFor(bp *bufferPool) *pageRing {
	if rd.ring == nil || rd.ring.bp != bp {
		rd.ring = newPageRing(bp)
	}
	return rd.ring
}

// release gives the ring's pages back, at EOF or Close, and drops the
// caller's row.
func (rd *reader) release(e *Engine) {
	rd.row = nil
	if rd.ring == nil {
		return
	}
	e.readMu.RLock()
	rd.ring.release()
	e.readMu.RUnlock()
	rd.ring = nil
}

// scanCursor extracts one consumer per Next — a descent of the index,
// then a walk along the household's run of heap pages — the engine's
// native cold path. Every read goes through readSeriesShared, which
// holds the table latch shared for one consumer: a single cursor is one
// connection, and partition cursors (rangeCursor) run their reads side
// by side through the same pool the way concurrent connections share
// shared_buffers.
type scanCursor struct {
	reader
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
		c.release(c.e)
		return nil, io.EOF
	}
	s, err := c.e.readSeriesShared(c.e.ids[c.i], basePrefix, &c.reader)
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
	c.release(c.e)
	return nil
}

// SizeHint is exact: the B+tree knows every household.
func (c *scanCursor) SizeHint() (int, bool) { return len(c.e.ids), true }

// rangeCursor is one partition of the heap: the households whose rank in
// the sorted ID list falls into [lo, hi). Tuples are bulk-loaded in
// ascending household order, one run per household, so a contiguous ID
// range is a contiguous heap-page range — partition cursors mostly touch
// disjoint pages and meet only in the pool's short mutex, once per read.
type rangeCursor struct {
	reader
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
		c.release(c.e)
		return nil, io.EOF
	}
	s, err := c.e.readSeriesShared(c.e.ids[c.lo+c.i], basePrefix, &c.reader)
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
	c.release(c.e)
	return nil
}

func (c *rangeCursor) SizeHint() (int, bool) { return c.hi - c.lo, true }
