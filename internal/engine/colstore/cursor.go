package colstore

import (
	"context"
	"fmt"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// pagedCursor assembles one consumer row per Next through the shared
// block cache: a block the cache holds is copied into the row, any other
// is decoded straight into it out of the consumer's payload area, read
// with one pread (pager.readConsumer), so every hour is written. The row
// is the one the caller handed over with TakeRow (a slot of the
// similarity drain's matrix, or a row of the partition loop's last
// block), otherwise a new one. Either way it is the caller's: no cache
// frame aliases it, and the cursor never writes it again, so it
// survives arbitrarily long in the compute phase.
// Partition cursors over disjoint ranges share one pager, so the byte
// budget is global no matter how many cursors a run opens.
//
// It is also a core.SummaryCursor over the same range: NextSummary
// advances the position Next does, answering from the resident block
// headers, and DecodeBlock decodes one block of that consumer out of its
// payload area, read into the buffer Next uses, never through the block
// cache.
type pagedCursor struct {
	p      *pager
	ctx    context.Context
	lo, hi int
	area   []byte    // payload-area read buffer of Next and DecodeBlock
	row    []float64 // from TakeRow, for the next successful Next
	i      int       // offset from lo
	stats  []core.BlockStats
	summed bool // the last move was a NextSummary that returned consumer lo+i-1
	read   bool // area holds that consumer's payload area
	closed bool
}

func newPagedCursor(p *pager, lo, hi int) *pagedCursor {
	return &pagedCursor{p: p, lo: lo, hi: hi}
}

func (c *pagedCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *pagedCursor) Next() (*timeseries.Series, error) {
	c.summed = false
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.lo+c.i >= c.hi {
		return nil, io.EOF
	}
	st := c.p.st
	cons := c.lo + c.i
	row := c.row
	if len(row) != st.n {
		row = make([]float64, st.n)
	}
	var err error
	if c.area, err = c.p.readConsumer(cons, row, c.area); err != nil {
		return nil, err
	}
	c.row = nil
	c.i++
	return &timeseries.Series{ID: st.ids[cons], Readings: row}, nil
}

// TakeRow implements core.RowTaker.
func (c *pagedCursor) TakeRow(row []float64) { c.row = row }

// NextSummary implements core.SummaryCursor.
func (c *pagedCursor) NextSummary() (timeseries.ID, []core.BlockStats, error) {
	c.summed = false
	if c.closed || c.lo+c.i >= c.hi {
		return 0, nil, io.EOF
	}
	st := c.p.st
	if c.stats == nil {
		c.stats = make([]core.BlockStats, st.blockCount)
	}
	cons := c.lo + c.i
	for b := range c.stats {
		h := st.hdr(cons, b)
		start, count := st.rows(b)
		c.stats[b] = core.BlockStats{Start: start, Count: count, NaNs: int(h.nans), Min: h.min, Max: h.max}
	}
	c.i++
	c.summed, c.read = true, false
	return st.ids[cons], c.stats, nil
}

// DecodeBlock implements core.SummaryCursor: the first block decoded of
// a consumer reads its payload area with one pread, and the rest are
// decoded out of that buffer.
func (c *pagedCursor) DecodeBlock(b int, dst []float64) error {
	if !c.summed {
		return fmt.Errorf("colstore: DecodeBlock with no consumer from NextSummary")
	}
	st := c.p.st
	if b < 0 || b >= st.blockCount {
		return fmt.Errorf("colstore: DecodeBlock: block %d out of range", b)
	}
	cons := c.lo + c.i - 1
	if !c.read {
		var err error
		if c.area, err = st.readArea(cons, c.area); err != nil {
			return err
		}
		c.read = true
	}
	return st.decodeBlock(cons, b, c.area, dst)
}

func (c *pagedCursor) Reset() error {
	// The rows handed out are the caller's; rewinding reads the blocks
	// again (cache hits for those the budget had room to admit).
	c.i = 0
	c.summed = false
	c.closed = false
	return nil
}

func (c *pagedCursor) Close() error {
	c.closed = true
	c.summed = false
	c.area = nil
	c.row = nil
	return nil
}

func (c *pagedCursor) SizeHint() (int, bool) { return c.hi - c.lo, true }
