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

// Cursor injects faults into an inner cursor's stream. It binds its
// context to the inner cursor too (delays are cancellable) and forwards
// the inner cursor's SizeHint.
type Cursor struct {
	cfg   Config
	inner core.Cursor
	ctx   context.Context

	served int // successful yields, for truncation accounting
}

// WrapCursor wraps one cursor with fault injection under cfg. The
// wrapper owns the inner cursor: closing it closes the inner cursor.
func WrapCursor(cur core.Cursor, cfg Config) *Cursor {
	return &Cursor{cfg: cfg, inner: cur}
}

// BindContext implements core.Cursor, binding the inner cursor too.
func (c *Cursor) BindContext(ctx context.Context) {
	c.ctx = ctx
	c.inner.BindContext(ctx)
}

// Next implements core.Cursor, delaying, failing, corrupting, or
// serving according to the consumer's drawn fault.
func (c *Cursor) Next() (*timeseries.Series, error) {
	if c.cfg.Calls != nil {
		c.cfg.Calls.Add(1)
	}
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.cfg.Delay > 0 {
		if err := c.sleep(c.cfg.Delay); err != nil {
			return nil, err
		}
	}
	s, err := c.inner.Next()
	if err != nil {
		return nil, err
	}
	if c.truncated() {
		// The tail of the stream is gone: the inner cursor advanced, so
		// the error is scoped to this consumer.
		return nil, &core.ConsumerError{ID: s.ID, Err: ErrTruncated}
	}
	switch k := c.cfg.Decide(s.ID); k {
	case Permanent:
		return nil, &core.ConsumerError{ID: s.ID, Err: ErrPermanent}
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

// Reset implements core.Cursor. Fault decisions are per-ID, so a replay
// injures exactly the same consumers.
func (c *Cursor) Reset() error {
	c.served = 0
	return c.inner.Reset()
}

// Close implements core.Cursor, closing the inner cursor.
func (c *Cursor) Close() error {
	return c.inner.Close()
}

// SizeHint implements core.Cursor with the inner cursor's hint.
func (c *Cursor) SizeHint() (int, bool) {
	return c.inner.SizeHint()
}
