package rowstore

import (
	"fmt"
	"testing"

	"github.com/smartmeter/smartbench/internal/wal"
)

// pinnedFrames counts the pool's frames that some caller still holds.
func (bp *bufferPool) pinnedFrames() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}

// TestPinsBalance holds every buffer-pool fetch and allocate to its
// unpin: after each engine operation, finished or failed, no frame may
// stay pinned. A leaked pin is invisible to every result the engine
// returns until the pool runs out of frames to evict.
func TestPinsBalance(t *testing.T) {
	src, ds := writeExact(t, 6, 30)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := New(dir, WithLayout(layout), WithWAL(wal.SyncBatch), WithPoolPages(16))
			defer e.Close()
			balanced := func(after string) {
				t.Helper()
				if n := e.bp.pinnedFrames(); n != 0 {
					t.Fatalf("after %s: %d frames still pinned", after, n)
				}
			}

			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			balanced("Load")
			if err := e.Open(); err != nil {
				t.Fatal(err)
			}
			balanced("Open")

			for _, w := range []int{1, 4} {
				sameSeries(t, drainPartitions(t, e, w), ds.Series)
				balanced(fmt.Sprintf("a full drain at W=%d", w))

				curs, err := e.NewCursors(w)
				if err != nil {
					t.Fatal(err)
				}
				for _, cur := range curs {
					if _, err := cur.Next(); err != nil {
						t.Fatal(err)
					}
					if err := cur.Close(); err != nil {
						t.Fatal(err)
					}
				}
				balanced(fmt.Sprintf("a partial drain and Close at W=%d", w))
			}

			ids := e.ids
			base := len(ds.Temperature.Values)
			for h := 0; h < 3; h++ {
				if err := e.Append(hourBatch(ids, base+h)); err != nil {
					t.Fatal(err)
				}
			}
			balanced("Append")
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			balanced("Checkpoint")

			// A fetch past the end of the file, directly and from inside
			// an index scan that already holds the leaf.
			if _, err := e.bp.fetch(e.pf.nPages + 3); err == nil {
				t.Fatal("fetch past the end of the file: want error")
			}
			balanced("a fetch past the end of the file")
			victim := ds.Series[0].ID
			last, _, err := e.table.maxSeq(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.table.index.insert(key{ID: uint64(victim), Seq: last + 1}, TID{Page: e.pf.nPages + 7}); err != nil {
				t.Fatal(err)
			}
			balanced("an index insert")
			// The published prefix ends before the appended hours; read
			// them all, so that the scan walks onto the planted entry.
			if err := e.table.readSeriesInto(victim, make([]float64, base+4), nil); err == nil {
				t.Fatal("reading through an index entry past the end of the file: want error")
			}
			balanced("a failed read inside an index scan")
		})
	}
}
