// Package cursortest is a conformance suite for core.Cursor
// implementations. Every engine's cursor is run through the same
// checks: it exhausts to io.EOF and stays exhausted, Reset replays the
// identical sequence, a series it has yielded is never written again,
// Close is idempotent, and a partial read followed by Close leaks
// neither goroutines nor file descriptors.
//
// RunPartitioned is the companion suite for core.PartitionedSource: the
// partition cursors must be pairwise disjoint, their union must equal
// the full cursor's ID set, and each partition cursor must itself pass
// the Cursor conformance checks. RunSummaryPartitioned applies the same
// partition assertions to a core.SummarySource's summary cursors.
package cursortest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// snapshot is one drained series, with readings copied out so a
// replay's buffer reuse cannot alias the first pass. src is the series
// as the cursor yielded it.
type snapshot struct {
	id       timeseries.ID
	readings []float64
	src      *timeseries.Series
}

func snap(s *timeseries.Series) snapshot {
	return snapshot{id: s.ID, readings: append([]float64(nil), s.Readings...), src: s}
}

// sameSeries fails the test unless got holds the same households with
// the same readings, bit for bit, as want.
func sameSeries(t *testing.T, what string, got, want []snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id {
			t.Fatalf("%s: series %d has ID %d, want %d", what, i, got[i].id, want[i].id)
		}
		if len(got[i].readings) != len(want[i].readings) {
			t.Fatalf("%s: series %d has %d readings, want %d",
				what, i, len(got[i].readings), len(want[i].readings))
		}
		for j := range want[i].readings {
			if !stats.ExactEqual(got[i].readings[j], want[i].readings[j]) {
				t.Fatalf("%s: series %d reading %d is %v, want %v",
					what, i, j, got[i].readings[j], want[i].readings[j])
			}
		}
	}
}

// Run exercises one cursor implementation. open must return a fresh
// cursor positioned at the first consumer; it is called once per
// sub-check.
func Run(t *testing.T, open func(t *testing.T) core.Cursor) {
	t.Helper()

	t.Run("ExhaustsAndStaysExhausted", func(t *testing.T) {
		cur := open(t)
		defer func() { _ = cur.Close() }()
		first := drain(t, cur)
		if len(first) == 0 {
			t.Fatal("cursor yielded no series")
		}
		for i := 0; i < 2; i++ {
			if _, err := cur.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("Next after EOF #%d: err = %v, want io.EOF", i+1, err)
			}
		}
		for i := 1; i < len(first); i++ {
			if first[i-1].id >= first[i].id {
				t.Fatalf("IDs not strictly ascending: %d then %d", first[i-1].id, first[i].id)
			}
		}
	})

	t.Run("ResetReplaysIdentically", func(t *testing.T) {
		cur := open(t)
		defer func() { _ = cur.Close() }()
		first := drain(t, cur)
		if err := cur.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		sameSeries(t, "replay", drain(t, cur), first)
	})

	// The pipeline holds yielded series while the cursor advances, so a
	// cursor that recycled a row buffer would corrupt a run at more than
	// one worker. drain copies at yield time; the pointers kept beside
	// the copies show what the cursor did to the originals afterwards.
	t.Run("YieldedSeriesStayValid", func(t *testing.T) {
		cur := open(t)
		yielded := drain(t, cur)
		now := func() []snapshot {
			out := make([]snapshot, len(yielded))
			for i, y := range yielded {
				out[i] = snap(y.src)
			}
			return out
		}
		sameSeries(t, "yielded series after EOF", now(), yielded)
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		sameSeries(t, "yielded series after Close", now(), yielded)
	})

	t.Run("CloseIdempotent", func(t *testing.T) {
		cur := open(t)
		if _, err := cur.Next(); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("Next: %v", err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, err := cur.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("Next after Close: err = %v, want io.EOF", err)
		}
	})

	t.Run("PartialReadCloseLeaksNothing", func(t *testing.T) {
		goroutines := runtime.NumGoroutine()
		fds := openFDs(t)
		cur := open(t)
		if _, err := cur.Next(); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("Next: %v", err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		waitStable(ctx, t, "goroutines", goroutines, func() int { return runtime.NumGoroutine() })
		if fds >= 0 {
			waitStable(ctx, t, "fds", fds, func() int { return openFDs(t) })
		}
	})
}

// RunPartitioned exercises a PartitionedSource implementation against
// the partition contract. open must return a fresh source with data
// loaded; it is called once per sub-check (and once per partition in
// the per-partition conformance pass). The source's serial NewCursor
// provides the reference ID set the partition union is compared to.
func RunPartitioned(t *testing.T, open func(t *testing.T) core.PartitionedSource) {
	t.Helper()

	t.Run("CoversExactlyOnce", func(t *testing.T) {
		src := open(t)
		for _, max := range []int{1, 2, 3, 7} {
			curs, err := src.NewCursors(max)
			if err != nil {
				t.Fatalf("NewCursors(%d): %v", max, err)
			}
			if len(curs) > max {
				t.Fatalf("NewCursors(%d) returned %d cursors", max, len(curs))
			}
			seen := map[timeseries.ID]int{} // id -> partition that yielded it
			for p, cur := range curs {
				for _, s := range drain(t, cur) {
					if prev, dup := seen[s.id]; dup {
						t.Fatalf("max=%d: household %d in partitions %d and %d", max, s.id, prev, p)
					}
					seen[s.id] = p
				}
				if err := cur.Close(); err != nil {
					t.Fatalf("max=%d: partition %d Close: %v", max, p, err)
				}
			}
			fullCur, err := serialCursor(src)
			if err != nil {
				t.Fatalf("max=%d: full cursor: %v", max, err)
			}
			var missing, extra []timeseries.ID
			fullCount := 0
			for _, s := range drain(t, fullCur) {
				fullCount++
				if _, ok := seen[s.id]; !ok {
					missing = append(missing, s.id)
				}
				delete(seen, s.id)
			}
			_ = fullCur.Close()
			for id := range seen {
				extra = append(extra, id)
			}
			if len(missing) > 0 || len(extra) > 0 {
				t.Fatalf("max=%d: union != full ID set (missing %v, extra %v)", max, missing, extra)
			}
			if fullCount == 0 {
				t.Fatalf("max=%d: full cursor yielded no series", max)
			}
		}
	})

	t.Run("EachPartitionConformant", func(t *testing.T) {
		src := open(t)
		curs, err := src.NewCursors(3)
		if err != nil {
			t.Fatalf("NewCursors(3): %v", err)
		}
		empty := make([]bool, len(curs))
		for p, cur := range curs {
			empty[p] = len(drain(t, cur)) == 0
			_ = cur.Close()
		}
		for p := range curs {
			if empty[p] {
				// Padding cursors past the data are legal; the Cursor
				// suite requires at least one series, so skip them.
				continue
			}
			p := p
			t.Run(fmt.Sprintf("partition%d", p), func(t *testing.T) {
				Run(t, func(t *testing.T) core.Cursor {
					cs, err := open(t).NewCursors(len(curs))
					if err != nil {
						t.Fatalf("NewCursors: %v", err)
					}
					for q, c := range cs {
						if q != p {
							_ = c.Close()
						}
					}
					if p >= len(cs) {
						t.Fatalf("NewCursors returned %d cursors, want >= %d", len(cs), p+1)
					}
					return cs[p]
				})
			})
		}
	})

	t.Run("MaxOneMatchesSerialOrFewer", func(t *testing.T) {
		src := open(t)
		curs, err := src.NewCursors(1)
		if err != nil {
			t.Fatalf("NewCursors(1): %v", err)
		}
		if len(curs) != 1 {
			t.Fatalf("NewCursors(1) returned %d cursors, want 1", len(curs))
		}
		got := drain(t, curs[0])
		_ = curs[0].Close()
		fullCur, err := serialCursor(src)
		if err != nil {
			t.Fatalf("full cursor: %v", err)
		}
		want := drain(t, fullCur)
		_ = fullCur.Close()
		if len(got) != len(want) {
			t.Fatalf("single partition yielded %d series, serial %d", len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id {
				t.Fatalf("series %d: partition ID %d, serial %d", i, got[i].id, want[i].id)
			}
		}
	})
}

// RunSummaryPartitioned holds a core.SummarySource to the partition
// contract RunPartitioned holds a PartitionedSource to: for each max,
// at most max cursors come back, and read in slice order they yield
// every household of want exactly once, in ascending order (so the
// ranges are disjoint, contiguous and ascend with the partition index).
// Each cursor must stay at io.EOF once drained and survive a second
// Close. want is the source's households in ascending order.
func RunSummaryPartitioned(t *testing.T, src core.SummarySource, want []timeseries.ID) {
	t.Helper()
	for _, max := range []int{1, 2, 3, 8, len(want) + 5} {
		curs, err := src.NewSummaryCursors(max)
		if err != nil {
			t.Fatalf("NewSummaryCursors(%d): %v", max, err)
		}
		if len(curs) > max || (len(curs) == 0) != (len(want) == 0) {
			t.Fatalf("NewSummaryCursors(%d) returned %d cursors for %d households", max, len(curs), len(want))
		}
		var got []timeseries.ID
		for p, sc := range curs {
			for {
				id, _, err := sc.NextSummary()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("max=%d partition %d: NextSummary: %v", max, p, err)
				}
				got = append(got, id)
			}
			if _, _, err := sc.NextSummary(); !errors.Is(err, io.EOF) {
				t.Fatalf("max=%d partition %d: NextSummary after EOF: %v", max, p, err)
			}
			for i := 0; i < 2; i++ {
				if err := sc.Close(); err != nil {
					t.Fatalf("max=%d partition %d: Close #%d: %v", max, p, i+1, err)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("max=%d: partitions yielded %d households, want %d", max, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("max=%d: household %d in partition order is %d, want %d", max, i, got[i], want[i])
			}
		}
	}
}

// serialCursor opens the source's full serial cursor; every
// PartitionedSource in this repo is also an exec.Source.
func serialCursor(src core.PartitionedSource) (core.Cursor, error) {
	s, ok := src.(interface{ NewCursor() (core.Cursor, error) })
	if !ok {
		return nil, fmt.Errorf("cursortest: source %T has no NewCursor", src)
	}
	return s.NewCursor()
}

// drain reads the cursor to io.EOF, snapshotting every series.
func drain(t *testing.T, cur core.Cursor) []snapshot {
	t.Helper()
	var out []snapshot
	for {
		s, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, snap(s))
	}
}

// openFDs counts this process's open file descriptors, or -1 when the
// platform offers no /proc.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// waitStable retries until the counter drops back to the baseline (GC
// and runtime bookkeeping can lag a Close). The context bounds the
// whole wait so a wedged runtime cannot stall the suite past its
// deadline.
func waitStable(ctx context.Context, t *testing.T, what string, base int, count func() int) {
	t.Helper()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var n int
	for i := 0; i < 50; i++ {
		n = count()
		if n <= base {
			return
		}
		runtime.GC()
		select {
		case <-ctx.Done():
			t.Fatalf("%s did not settle before %v: %d before, %d after", what, ctx.Err(), base, n)
		case <-tick.C:
		}
	}
	t.Fatalf("%s leaked: %d before, %d after", what, base, n)
}
