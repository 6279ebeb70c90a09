package cursortest

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// WarmSource is what a warm step drains: the methods of exec.Source,
// which cursortest cannot import.
type WarmSource interface {
	core.PartitionedSource
	Temperature() (*timeseries.Temperature, error)
}

// RunWarmCancel holds a warm step to cancellation. warm must drain its
// source at up to workers partitions under ctx — typically
//
//	_, err := exec.Warm(ctx, src, workers)
//
// RunWarmCancel hands it src behind a wrapper that cancels ctx once the
// first series has come off any of the cursors, and requires the
// context's error back, every cursor the step opened closed, and the
// process's goroutines and open files back to their count before.
func RunWarmCancel(t *testing.T, src WarmSource, workers int, warm func(ctx context.Context, src WarmSource, workers int) error) {
	t.Helper()
	baseGoroutines := numGoroutines()
	baseFDs := openFDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelSource{WarmSource: src, cancel: cancel}
	if err := warm(ctx, cs, workers); !errors.Is(err, context.Canceled) {
		t.Fatalf("a warm step cancelled after its first series returned %v, want context.Canceled", err)
	}
	if opened, closed := cs.opened.Load(), cs.closed.Load(); opened == 0 || closed != opened {
		t.Fatalf("the warm step opened %d cursors and closed %d", opened, closed)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer wcancel()
	waitStable(wctx, t, "goroutines", baseGoroutines, numGoroutines)
	if baseFDs >= 0 {
		waitStable(wctx, t, "fds", baseFDs, func() int { return openFDs(t) })
	}
}

// cancelSource counts the cursors it opens and closes, and cancels once
// one of them has yielded a series.
type cancelSource struct {
	WarmSource
	cancel         context.CancelFunc
	opened, closed atomic.Int64
}

func (s *cancelSource) NewCursors(max int) ([]core.Cursor, error) {
	curs, err := s.WarmSource.NewCursors(max)
	for i, cur := range curs {
		curs[i] = &cancelCursor{Cursor: cur, src: s}
	}
	s.opened.Add(int64(len(curs)))
	return curs, err
}

type cancelCursor struct {
	core.Cursor
	src    *cancelSource
	closed bool
}

func (c *cancelCursor) Next() (*timeseries.Series, error) {
	s, err := c.Cursor.Next()
	if err == nil {
		c.src.cancel()
	}
	return s, err
}

func (c *cancelCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.src.closed.Add(1)
	}
	return c.Cursor.Close()
}
