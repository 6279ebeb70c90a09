package colstore

import (
	"context"
	"fmt"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// flatCursor (in-core mode) decodes one consumer column per Next out of
// the resident segment image. All rows land in one contiguous row-major
// buffer, so when the pipeline materializes the cursor for similarity
// the FlatMatrix packing adopts the buffer zero-copy — the column store
// hands its columns to the blocked kernel without a repack. Draining
// the cursor installs the decoded dataset on the engine, keeping the
// old cold-run caching: the next Run is warm.
type flatCursor struct {
	e       *Engine
	st      *segStore
	ctx     context.Context
	temp    *timeseries.Temperature
	flat    []float64
	series  []*timeseries.Series
	scratch []byte
	i       int
	closed  bool
}

func newFlatCursor(e *Engine) *flatCursor {
	st := e.store
	return &flatCursor{
		e:      e,
		st:     st,
		temp:   &timeseries.Temperature{Values: st.temp},
		flat:   make([]float64, st.consumers*st.n),
		series: make([]*timeseries.Series, st.consumers),
	}
}

func (c *flatCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *flatCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= c.st.consumers {
		return nil, io.EOF
	}
	n := c.st.n
	row := c.flat[c.i*n : (c.i+1)*n]
	var err error
	c.scratch, err = c.st.decodeConsumerInto(c.i, row, c.scratch)
	if err != nil {
		return nil, err
	}
	s := &timeseries.Series{ID: c.st.ids[c.i], Readings: row}
	c.series[c.i] = s
	c.i++
	if c.i == c.st.consumers && c.e.decoded == nil {
		c.e.decoded = &timeseries.Dataset{
			Series:      append([]*timeseries.Series(nil), c.series...),
			Temperature: c.temp,
		}
	}
	return s, nil
}

func (c *flatCursor) Reset() error {
	// The flat buffer is reused; re-decoding writes identical values.
	c.i = 0
	if c.series == nil { // Close dropped the slots; a revived replay refills them
		c.series = make([]*timeseries.Series, c.st.consumers)
	}
	c.closed = false
	return nil
}

func (c *flatCursor) Close() error {
	c.closed = true
	c.series = nil
	return nil
}

// SizeHint is exact: the directory records the consumer count.
func (c *flatCursor) SizeHint() (int, bool) { return c.st.consumers, true }

// flatRangeCursor (in-core mode) decodes one contiguous group of
// consumer segments [lo, hi) — a partition cursor. Each partition owns
// its own flat buffer so concurrent decode goroutines never share a
// write target, and unlike the full cursor it never installs the
// decoded dataset on the engine (that cache is the full cursor's and
// Warm's job; installing from racing partitions would need
// synchronization for no benefit).
type flatRangeCursor struct {
	st      *segStore
	ctx     context.Context
	lo, hi  int
	flat    []float64
	scratch []byte
	i       int // offset from lo
	closed  bool
}

func (c *flatRangeCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *flatRangeCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.lo+c.i >= c.hi {
		return nil, io.EOF
	}
	n := c.st.n
	if c.flat == nil {
		c.flat = make([]float64, (c.hi-c.lo)*n)
	}
	row := c.flat[c.i*n : (c.i+1)*n]
	var err error
	c.scratch, err = c.st.decodeConsumerInto(c.lo+c.i, row, c.scratch)
	if err != nil {
		return nil, err
	}
	id := c.st.ids[c.lo+c.i]
	c.i++
	return &timeseries.Series{ID: id, Readings: row}, nil
}

func (c *flatRangeCursor) Reset() error {
	// The flat buffer is reused; re-decoding writes identical values.
	c.i = 0
	c.closed = false
	return nil
}

func (c *flatRangeCursor) Close() error {
	c.closed = true
	c.flat = nil
	return nil
}

func (c *flatRangeCursor) SizeHint() (int, bool) { return c.hi - c.lo, true }

// pagedCursor (budgeted mode) assembles one consumer row per Next
// through the shared block cache: a block the cache holds is copied
// into the row, any other is decoded from the file straight into it
// (pager.read). Every row is a fresh allocation that no cache frame
// aliases — it must survive arbitrarily long in the compute phase.
// Partition cursors over disjoint ranges share one pager, so the byte
// budget is global no matter how many cursors the prefetcher opens.
type pagedCursor struct {
	p       *pager
	ctx     context.Context
	lo, hi  int
	scratch []byte
	i       int // offset from lo
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
	row := make([]float64, st.n)
	var err error
	if c.scratch, err = c.p.readConsumer(cons, row, c.scratch); err != nil {
		return nil, err
	}
	c.i++
	return &timeseries.Series{ID: st.ids[cons], Readings: row}, nil
}

func (c *pagedCursor) Reset() error {
	// Rows were handed out as fresh slices; rewinding reads the blocks
	// again (cache hits for those the budget had room to admit).
	c.i = 0
	c.closed = false
	return nil
}

func (c *pagedCursor) Close() error {
	c.closed = true
	c.scratch = nil
	return nil
}

func (c *pagedCursor) SizeHint() (int, bool) { return c.hi - c.lo, true }

// summaryCursor implements core.SummaryCursor over the resident block
// headers of consumers [lo, hi), decoding individual blocks on demand
// for the exec layer's compressed-domain fast paths. Cursors over
// disjoint ranges share nothing but the read-only store.
type summaryCursor struct {
	st      *segStore
	lo, hi  int
	stats   []core.BlockStats
	scratch []byte
	i       int // next consumer, from lo
	closed  bool
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
		s.stats[b] = core.BlockStats{
			Start: int(h.start),
			Count: int(h.count),
			NaNs:  int(h.nans),
			Min:   h.min,
			Max:   h.max,
			Sum:   h.sum,
			SumSq: h.sumSq,
			Flags: core.BlockFlags(h.flags),
		}
	}
	s.i++
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
	h := s.st.hdr(c, b)
	var err error
	s.scratch, err = s.st.readBlockVals(c, b, s.scratch, dst[:h.count])
	return err
}

func (s *summaryCursor) Close() error {
	s.closed = true
	s.scratch = nil
	return nil
}
