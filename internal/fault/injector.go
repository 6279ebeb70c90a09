package fault

import (
	"context"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Source is what the injector wraps: structurally identical to
// exec.Source (which this package cannot name: exec's tests import it),
// so every core.Engine, core.Snapshot and exec.NewDatasetSource
// satisfies it.
type Source interface {
	core.PartitionedSource
	Temperature() (*timeseries.Temperature, error)
}

// Injector wraps a source so that every cursor it hands out injects the
// configured faults. It satisfies exec.Source: each partition cursor
// injects independently, and fault decisions stay per-ID, so the
// injured set is identical at every worker count.
type Injector struct {
	src Source
	cfg Config
}

// New wraps src with fault injection under cfg.
func New(src Source, cfg Config) *Injector {
	return &Injector{src: src, cfg: cfg}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// NewCursors implements core.PartitionedSource by wrapping each
// underlying partition cursor.
func (in *Injector) NewCursors(max int) ([]core.Cursor, error) {
	curs, err := in.src.NewCursors(max)
	if err != nil {
		return nil, err
	}
	wrapped := make([]core.Cursor, len(curs))
	for i, c := range curs {
		wrapped[i] = WrapCursor(c, in.cfg)
	}
	return wrapped, nil
}

// Temperature forwards to the wrapped source.
func (in *Injector) Temperature() (*timeseries.Temperature, error) {
	return in.src.Temperature()
}

var _ core.PartitionedSource = (*Injector)(nil)

// Cursor injects faults into an inner cursor's stream. It implements
// core.ContextCursor (delays and retries are cancellable), core.Skipper
// (the pipeline can abandon a consumer whose transient fault outlives
// the retry budget), and forwards core.SizeHinter.
type Cursor struct {
	cfg   Config
	inner core.Cursor
	ctx   context.Context

	served int // successful yields, for truncation accounting

	// A consumer mid-transient-fault: the series is drawn from the inner
	// cursor but withheld while failsLeft > 0, per the transient
	// contract (the cursor stays positioned on the consumer).
	pending   *timeseries.Series
	failsLeft int
}

// WrapCursor wraps one cursor with fault injection under cfg. The
// wrapper owns the inner cursor: closing it closes the inner cursor.
func WrapCursor(cur core.Cursor, cfg Config) *Cursor {
	return &Cursor{cfg: cfg, inner: cur}
}

// BindContext implements core.ContextCursor.
func (c *Cursor) BindContext(ctx context.Context) {
	c.ctx = ctx
	core.BindContext(c.inner, ctx)
}

func (c *Cursor) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Next implements core.Cursor, delaying, failing, corrupting, or
// serving according to the consumer's drawn fault.
func (c *Cursor) Next() (*timeseries.Series, error) {
	if c.cfg.Calls != nil {
		c.cfg.Calls.Add(1)
	}
	if err := c.ctxErr(); err != nil {
		return nil, err
	}
	if c.cfg.Delay > 0 {
		if err := c.sleep(c.cfg.Delay); err != nil {
			return nil, err
		}
	}
	if c.pending != nil {
		if c.failsLeft > 0 {
			c.failsLeft--
			return nil, &core.ConsumerError{ID: c.pending.ID, Transient: true, Err: ErrTransient}
		}
		s := c.pending
		c.pending = nil
		return c.serve(s)
	}
	s, err := c.inner.Next()
	if err != nil {
		return nil, err
	}
	if c.truncated() {
		// The tail of the stream is gone: the inner cursor advanced, so
		// the error is permanent and scoped to this consumer.
		return nil, &core.ConsumerError{ID: s.ID, Err: ErrTruncated}
	}
	switch k := c.cfg.Decide(s.ID); k {
	case Permanent:
		return nil, &core.ConsumerError{ID: s.ID, Err: ErrPermanent}
	case Transient:
		c.pending = s
		c.failsLeft = c.cfg.tries() - 1
		return nil, &core.ConsumerError{ID: s.ID, Transient: true, Err: ErrTransient}
	case Corrupt, AllMissing:
		return c.serve(c.cfg.injure(k, s))
	default:
		return c.serve(s)
	}
}

func (c *Cursor) truncated() bool {
	return c.cfg.TruncateAfter > 0 && c.served >= c.cfg.TruncateAfter
}

func (c *Cursor) serve(s *timeseries.Series) (*timeseries.Series, error) {
	c.served++
	return s, nil
}

// sleep waits for d, honoring the bound context.
func (c *Cursor) sleep(d time.Duration) error {
	if c.ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// Skip implements core.Skipper: it abandons the consumer a transient
// fault is holding, letting the pipeline quarantine it and move on.
func (c *Cursor) Skip() error {
	c.pending = nil
	c.failsLeft = 0
	return nil
}

// Reset implements core.Cursor. Fault decisions are per-ID, so a replay
// injures exactly the same consumers.
func (c *Cursor) Reset() error {
	c.pending = nil
	c.failsLeft = 0
	c.served = 0
	return c.inner.Reset()
}

// Close implements core.Cursor, closing the inner cursor.
func (c *Cursor) Close() error {
	c.pending = nil
	c.failsLeft = 0
	return c.inner.Close()
}

// SizeHint forwards the inner cursor's hint.
func (c *Cursor) SizeHint() (int, bool) {
	if h, ok := c.inner.(core.SizeHinter); ok {
		return h.SizeHint()
	}
	return 0, false
}
