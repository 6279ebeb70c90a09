package colstore

import (
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
)

func TestCursorConformance(t *testing.T) {
	src, _ := writeSource(t, 5, 10)

	t.Run("ColdSegmentCursor", func(t *testing.T) {
		e := New(t.TempDir())
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			// Draining a segment cursor installs the decoded dataset; drop
			// it so every sub-check exercises the image-decoding cursor.
			e.decoded = nil
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cur.(*flatCursor); !ok {
				t.Fatalf("cold engine yielded %T, want *flatCursor", cur)
			}
			return cur
		})
	})

	t.Run("WarmDatasetCursor", func(t *testing.T) {
		e := New(t.TempDir())
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
	src, _ := writeSource(t, 7, 10)

	t.Run("Cold", func(t *testing.T) {
		e := New(t.TempDir())
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource {
			// Keep every pass on the image-decoding path.
			e.decoded = nil
			return e
		})
	})

	t.Run("Warm", func(t *testing.T) {
		e := New(t.TempDir())
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		if err := e.Warm(); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})
}

func TestSegmentCursorInstallsDecoded(t *testing.T) {
	src, _ := writeSource(t, 4, 10)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	e.decoded = nil
	cur, err := e.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 4; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if e.decoded == nil {
		t.Fatal("draining the segment cursor did not cache the decoded dataset")
	}
	if got := len(e.decoded.Series); got != 4 {
		t.Fatalf("cached dataset has %d series, want 4", got)
	}

	// A cold one-worker run drains that same cursor on the calling
	// goroutine, so it leaves the engine warm too.
	e.decoded = nil
	if _, err := e.Run(core.Spec{Task: core.TaskThreeLine, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if e.decoded == nil || len(e.decoded.Series) != 4 {
		t.Fatal("a cold one-worker run did not leave the decoded dataset on the engine")
	}
}
