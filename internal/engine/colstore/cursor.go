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
type pagedCursor struct {
	p       *pager
	ctx     context.Context
	lo, hi  int
	scratch []byte
	row     []float64 // from TakeRow, for the next successful Next
	i       int       // offset from lo
	closed  bool
}

func newPagedCursor(p *pager, lo, hi int) *pagedCursor {
	return &pagedCursor{p: p, lo: lo, hi: hi}
}

func (c *pagedCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *pagedCursor) Next() (*timeseries.Series, error) {
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
	if c.scratch, err = c.p.readConsumer(cons, row, c.scratch); err != nil {
		return nil, err
	}
	c.row = nil
	c.i++
	return &timeseries.Series{ID: st.ids[cons], Readings: row}, nil
}

// TakeRow implements core.RowTaker.
func (c *pagedCursor) TakeRow(row []float64) { c.row = row }

func (c *pagedCursor) Reset() error {
	// The rows handed out are the caller's; rewinding reads the blocks
	// again (cache hits for those the budget had room to admit).
	c.i = 0
	c.closed = false
	return nil
}

func (c *pagedCursor) Close() error {
	c.closed = true
	c.scratch = nil
	c.row = nil
	return nil
}

func (c *pagedCursor) SizeHint() (int, bool) { return c.hi - c.lo, true }

// summaryCursor implements core.SummaryCursor over the resident block
// headers of consumers [lo, hi), decoding individual blocks on demand
// for the exec layer's compressed-domain fast paths: the first block
// decoded of a consumer reads its payload area, and the rest are
// decoded out of that buffer. Cursors over disjoint ranges share
// nothing but the read-only store.
type summaryCursor struct {
	st     *segStore
	lo, hi int
	stats  []core.BlockStats
	area   []byte
	read   bool // area holds the current consumer's payload area
	i      int  // next consumer, from lo
	closed bool
}

func newSummaryCursor(st *segStore, lo, hi int) *summaryCursor {
	return &summaryCursor{st: st, lo: lo, hi: hi, i: lo}
}

func (s *summaryCursor) NextSummary() (timeseries.ID, []core.BlockStats, error) {
	if s.closed || s.i >= s.hi {
		return 0, nil, io.EOF
	}
	if s.stats == nil {
		s.stats = make([]core.BlockStats, s.st.blockCount)
	}
	c := s.i
	for b := 0; b < s.st.blockCount; b++ {
		h := s.st.hdr(c, b)
		start, count := s.st.rows(b)
		s.stats[b] = core.BlockStats{Start: start, Count: count, NaNs: int(h.nans), Min: h.min, Max: h.max}
	}
	s.i++
	s.read = false
	return s.st.ids[c], s.stats, nil
}

func (s *summaryCursor) DecodeBlock(b int, dst []float64) error {
	if s.closed {
		return fmt.Errorf("colstore: DecodeBlock on closed summary cursor")
	}
	c := s.i - 1
	if c < s.lo {
		return fmt.Errorf("colstore: DecodeBlock before NextSummary")
	}
	if b < 0 || b >= s.st.blockCount {
		return fmt.Errorf("colstore: DecodeBlock: block %d out of range", b)
	}
	if !s.read {
		var err error
		if s.area, err = s.st.readArea(c, s.area); err != nil {
			return err
		}
		s.read = true
	}
	return s.st.decodeBlock(c, b, s.area, dst)
}

func (s *summaryCursor) Close() error {
	s.closed = true
	s.area = nil
	return nil
}
