package rowstore

import (
	"context"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// reader is what a cursor brings to readSeriesShared: the row its next
// Next decodes into (core.RowTaker) and the ring its heap walks read
// through (ring.go).
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

// rangeCursor reads a range of households, one per Next, through
// readSeriesShared, which holds the table latch shared for one
// consumer: partition cursors run their reads side by side through the
// same pool the way concurrent connections share shared_buffers. An
// engine's cursor (Engine.NewCursors) reads a range of the sorted ID
// list at the published prefix; tuples are bulk-loaded in ascending
// household order, one run per household, so a contiguous ID range is a
// contiguous heap-page range — partition cursors mostly touch disjoint
// pages and meet only in the pool's short mutex, once per read. A
// snapshot's cursor (rowSnapshot) reads the household lengths it
// captured.
type rangeCursor struct {
	reader
	e      *Engine
	ctx    context.Context
	ids    []timeseries.ID
	lens   map[timeseries.ID]int // captured lengths; nil: basePrefix
	i      int
	closed bool
}

func (c *rangeCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *rangeCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.ids) {
		c.release(c.e)
		return nil, io.EOF
	}
	id, upTo := c.ids[c.i], basePrefix
	if c.lens != nil {
		upTo = c.lens[id]
	}
	s, err := c.e.readSeriesShared(id, upTo, &c.reader)
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

// SizeHint is exact: the B+tree knows every household.
func (c *rangeCursor) SizeHint() (int, bool) { return len(c.ids), true }
