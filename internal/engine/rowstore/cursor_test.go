package rowstore

import (
	"fmt"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func TestCursorConformance(t *testing.T) {
	src, _ := writeSource(t, 5, 10)

	t.Run("ColdScanCursor", func(t *testing.T) {
		e := New(t.TempDir())
		defer e.Close()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := cursortest.Open(e)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cur.(*rangeCursor); !ok {
				t.Fatalf("cold engine yielded %T, want *rangeCursor", cur)
			}
			return cur
		})
	})

	t.Run("ArrayLayoutScanCursor", func(t *testing.T) {
		e := New(t.TempDir(), WithLayout(LayoutArrays))
		defer e.Close()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.Run(t, func(t *testing.T) core.Cursor {
			cur, err := cursortest.Open(e)
			if err != nil {
				t.Fatal(err)
			}
			return cur
		})
	})
}

func TestPartitionConformance(t *testing.T) {
	src, ds := writeSource(t, 7, 10)

	t.Run("Cold", func(t *testing.T) {
		e := New(t.TempDir())
		defer e.Close()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		cursortest.RunPartitioned(t, cursortest.IDs(ds), func(t *testing.T) core.PartitionedSource { return e })
	})
}

// TestSnapshotPartitionConformance holds a snapshot's split to the
// partition contract: a day of live tuples over a loaded base and a
// household that exists only in them, at the default pool and at one
// of four pages, whose half caps the split at two partitions, as it
// caps the engine's own.
func TestSnapshotPartitionConformance(t *testing.T) {
	src, ds := writeSource(t, 7, 2)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	baseN := len(ds.Temperature.Values)
	for _, pool := range []int{DefaultPoolPages, 4} {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			e := New(t.TempDir(), WithPoolPages(pool))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			for h := baseN; h < baseN+24; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Append(hourBatch([]timeseries.ID{9999}, 0)); err != nil {
				t.Fatal(err)
			}
			cursortest.RunSnapshotPartitioned(t, e, append(ids, 9999))

			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			for _, max := range []int{1, 2, 8} {
				parts, err := cur.(core.PartitionedSource).NewCursors(max)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range parts {
					_ = c.Close()
				}
				want := min(max, pool/2, len(ids)+1)
				if len(parts) != want {
					t.Errorf("NewCursors(%d) at %d pages: %d partitions, want %d", max, pool, len(parts), want)
				}
			}
		})
	}
}
