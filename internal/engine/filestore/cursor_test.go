package filestore

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func TestCursorConformance(t *testing.T) {
	ds := makeDataset(t, 5, 10)

	t.Run("PartitionedFileCursor", func(t *testing.T) {
		src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			return cur
		})
	})

	t.Run("UnpartitionedIndexCursor", func(t *testing.T) {
		src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.LoadDirect(src); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cur.(*indexCursor); !ok {
				t.Fatalf("unpartitioned reading-per-line source yielded %T, want *indexCursor", cur)
			}
			return cur
		})
	})

	t.Run("SeriesPerLineLazyCursor", func(t *testing.T) {
		src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatSeriesPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.LoadDirect(src); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			return cur
		})
	})

	t.Run("WarmDatasetCursor", func(t *testing.T) {
		src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		if err := e.Warm(); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			return cur
		})
	})
}

func TestPartitionConformance(t *testing.T) {
	ds := makeDataset(t, 7, 10)

	t.Run("PartitionedFiles", func(t *testing.T) {
		src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})

	t.Run("UnpartitionedIndex", func(t *testing.T) {
		src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.LoadDirect(src); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})

	t.Run("UnpartitionedSeriesPerLine", func(t *testing.T) {
		src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatSeriesPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.LoadDirect(src); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})

	t.Run("Warm", func(t *testing.T) {
		src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		if err := e.Warm(); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})
}

// TestFileCursorReleasesPoppedSeries pins the collectability fix in
// fileCursor.Next: once a series has been handed out and dropped by the
// caller, the cursor's pending backlog must not keep it alive (the
// popped slot is nil'd before the re-slice).
func TestFileCursorReleasesPoppedSeries(t *testing.T) {
	ds := makeDataset(t, 6, 10)
	dir := t.TempDir()
	// One multi-series file so the cursor holds a real backlog.
	src, err := meterdata.WriteGrouped(dir, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	cur := newFileCursor(src)
	defer cur.Close()

	s, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.pending) == 0 {
		t.Fatal("test needs a pending backlog; got none")
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(s, func(*timeseries.Series) { close(collected) })
	s = nil

	deadline := time.After(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("popped series not collected: fileCursor retains it via pending")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestIndexPartCloseResetClose: Close releases a partition cursor's hold
// on the shared index exactly once. Reset rewinds but does not revive a
// closed cursor, so a second Close must not release the index again,
// and the siblings still open must keep reading from it.
func TestIndexPartCloseResetClose(t *testing.T) {
	ds := makeDataset(t, 6, 5)
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.LoadDirect(src); err != nil {
		t.Fatal(err)
	}
	const w = 3
	curs, err := e.NewCursors(w)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*indexPartCursor, len(curs))
	for i, cur := range curs {
		parts[i] = cur.(*indexPartCursor)
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	idx := parts[0].idx
	openHolds := func() int {
		idx.mu.Lock()
		defer idx.mu.Unlock()
		return idx.open
	}

	if err := parts[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := parts[0].Reset(); err != nil {
		t.Fatal(err)
	}
	if err := parts[0].Close(); err != nil {
		t.Fatal(err)
	}
	if got := openHolds(); got != w-1 {
		t.Fatalf("after Close, Reset, Close on one of %d cursors: %d holds on the index, want %d", w, got, w-1)
	}
	if _, err := parts[0].Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next on a closed, reset cursor: err = %v, want io.EOF", err)
	}
	if idx.index == nil {
		t.Fatal("index dropped while sibling cursors are open")
	}
	if _, err := parts[1].Next(); err != nil {
		t.Fatalf("sibling Next after Close, Reset, Close: %v", err)
	}

	for _, p := range parts[1:] {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := openHolds(); got != 0 || idx.index != nil {
		t.Errorf("after every cursor closed: %d holds, index dropped %v; want 0 and true", got, idx.index == nil)
	}
}
