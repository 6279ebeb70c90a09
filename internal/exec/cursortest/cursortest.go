// Package cursortest is a conformance suite for core.Cursor
// implementations. Every engine's cursor is run through the same
// checks: it exhausts to io.EOF and stays exhausted, Reset replays the
// identical sequence, a series it has yielded is never written again,
// Close is idempotent, and a partial read followed by Close leaks
// neither goroutines nor file descriptors.
//
// RunPartitioned is the companion suite for core.PartitionedSource: the
// partition cursors must be pairwise disjoint, their union must equal
// the household IDs the caller stored, and each partition cursor must
// itself pass the Cursor conformance checks. A partition cursor that hands out block
// summaries (core.SummaryCursor) must advance through them to the
// households Next yields, with blocks that tile each row, summarize it
// and decode to its bits.
package cursortest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/colcodec"
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
// the same readings, bit for bit (a NaN reading included), as want.
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
			if math.Float64bits(got[i].readings[j]) != math.Float64bits(want[i].readings[j]) {
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
	// cursor that recycled a row buffer of its own would corrupt a run at more than
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
// the per-partition conformance pass). want lists the households the
// caller stored in it, the reference that the union of every split and
// the order of NewCursors(1)'s one cursor are held to.
func RunPartitioned(t *testing.T, want []timeseries.ID, open func(t *testing.T) core.PartitionedSource) {
	t.Helper()
	want = slices.Clone(want)
	slices.Sort(want)

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
				rows := drain(t, cur)
				for _, s := range rows {
					if prev, dup := seen[s.id]; dup {
						t.Fatalf("max=%d: household %d in partitions %d and %d", max, s.id, prev, p)
					}
					seen[s.id] = p
				}
				sc, summarizes := cur.(core.SummaryCursor)
				if summarizes {
					summariesMatchRows(t, fmt.Sprintf("max=%d partition %d", max, p), cur, sc, rows)
				}
				if err := cur.Close(); err != nil {
					t.Fatalf("max=%d: partition %d Close: %v", max, p, err)
				}
				if summarizes {
					refusesDecode(t, fmt.Sprintf("max=%d partition %d after Close", max, p), sc)
					if _, _, err := sc.NextSummary(); !errors.Is(err, io.EOF) {
						t.Fatalf("max=%d partition %d: NextSummary after Close: err = %v, want io.EOF", max, p, err)
					}
				}
			}
			var missing []timeseries.ID
			for _, id := range want {
				if _, ok := seen[id]; !ok {
					missing = append(missing, id)
				}
				delete(seen, id)
			}
			if len(missing) > 0 || len(seen) > 0 {
				t.Fatalf("max=%d: union != stored ID set (missing %v, extra %v)", max, missing, seen)
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

	t.Run("MaxOneYieldsStoredOrder", func(t *testing.T) {
		cur, err := Open(open(t))
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, cur)
		_ = cur.Close()
		if len(got) != len(want) {
			t.Fatalf("NewCursors(1) yielded %d series, %d stored", len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i] {
				t.Fatalf("series %d: NewCursors(1) yielded ID %d, want %d", i, got[i].id, want[i])
			}
		}
	})
}

// RunSnapshotPartitioned holds the split of app's snapshots to the
// partition contract RunPartitioned holds an engine to. Each source it
// opens is one snapshot, so app must not change while it runs; want
// lists the households the caller stored and appended.
func RunSnapshotPartitioned(t *testing.T, app core.Appender, want []timeseries.ID) {
	t.Helper()
	RunPartitioned(t, want, func(t *testing.T) core.PartitionedSource {
		snap, _, err := app.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = snap.Close() })
		return snap
	})
}

// IDs lists the households of ds, the want of RunPartitioned for a
// source loaded from it.
func IDs(ds *timeseries.Dataset) []timeseries.ID {
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	return ids
}

// Open opens src's serial cursor, NewCursors(1), and refuses an answer
// of any other number of cursors.
func Open(src core.PartitionedSource) (core.Cursor, error) {
	curs, err := src.NewCursors(1)
	if err != nil {
		return nil, err
	}
	if len(curs) != 1 {
		for _, cur := range curs {
			_ = cur.Close()
		}
		return nil, fmt.Errorf("cursortest: NewCursors(1) opened %d cursors", len(curs))
	}
	return curs[0], nil
}

// summariesMatchRows holds a summarizing cursor, which Next has just
// drained to rows, to its summaries: after a Reset, DecodeBlock refuses
// until NextSummary has returned a consumer; NextSummary then yields
// the households of rows in order, each with blocks that tile its row
// from 0, carry that block's colcodec.Summarize stats and decode to its
// bits, and stays at io.EOF, where DecodeBlock refuses again. A last
// pass alternates Next and NextSummary: they advance one position, and
// a Next leaves no block to decode.
func summariesMatchRows(t *testing.T, what string, cur core.Cursor, sc core.SummaryCursor, rows []snapshot) {
	t.Helper()
	if err := cur.Reset(); err != nil {
		t.Fatalf("%s: Reset: %v", what, err)
	}
	refusesDecode(t, what+" before NextSummary", sc)
	var dst []float64
	for i, want := range rows {
		id, blocks, err := sc.NextSummary()
		if err != nil {
			t.Fatalf("%s: NextSummary %d: %v", what, i, err)
		}
		if id != want.id {
			t.Fatalf("%s: NextSummary %d has ID %d, Next had %d", what, i, id, want.id)
		}
		end := 0
		for b, bs := range blocks {
			if bs.Start != end || bs.Count < 0 || bs.Start+bs.Count > len(want.readings) {
				t.Fatalf("%s: household %d block %d covers [%d, %d) after row %d of %d", what, id, b, bs.Start, bs.Start+bs.Count, end, len(want.readings))
			}
			end += bs.Count
			block := want.readings[bs.Start:end]
			ref := colcodec.Summarize(block)
			if bs.Count != ref.Count || bs.NaNs != ref.NaNs || !sameFloat(bs.Min, ref.Min) || !sameFloat(bs.Max, ref.Max) {
				t.Fatalf("%s: household %d block %d stats %+v, its rows summarize to %+v", what, id, b, bs, ref)
			}
			if cap(dst) < bs.Count {
				dst = make([]float64, bs.Count)
			}
			if err := sc.DecodeBlock(b, dst[:bs.Count]); err != nil {
				t.Fatalf("%s: household %d DecodeBlock(%d): %v", what, id, b, err)
			}
			for j, v := range block {
				if math.Float64bits(dst[j]) != math.Float64bits(v) {
					t.Fatalf("%s: household %d block %d row %d decodes to %x, Next gave %x", what, id, b, j, math.Float64bits(dst[j]), math.Float64bits(v))
				}
			}
		}
		if end != len(want.readings) {
			t.Fatalf("%s: household %d blocks cover %d rows, Next gave %d", what, id, end, len(want.readings))
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := sc.NextSummary(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: NextSummary after the last household #%d: err = %v, want io.EOF", what, i+1, err)
		}
		refusesDecode(t, what+" after io.EOF", sc)
	}

	if err := cur.Reset(); err != nil {
		t.Fatalf("%s: Reset: %v", what, err)
	}
	for i, want := range rows {
		var id timeseries.ID
		if i%2 == 0 {
			s, err := cur.Next()
			if err != nil {
				t.Fatalf("%s: alternating Next %d: %v", what, i, err)
			}
			id = s.ID
			refusesDecode(t, what+" after Next", sc)
		} else {
			var err error
			if id, _, err = sc.NextSummary(); err != nil {
				t.Fatalf("%s: alternating NextSummary %d: %v", what, i, err)
			}
		}
		if id != want.id {
			t.Fatalf("%s: alternating read %d has ID %d, want %d", what, i, id, want.id)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("%s: Next after alternating reads: err = %v, want io.EOF", what, err)
	}
}

// refusesDecode fails the test unless DecodeBlock refuses block 0,
// leaving dst as it was.
func refusesDecode(t *testing.T, what string, sc core.SummaryCursor) {
	t.Helper()
	const sentinel = -7.25
	dst := []float64{sentinel}
	if err := sc.DecodeBlock(0, dst); err == nil || !stats.ExactEqual(dst[0], sentinel) {
		t.Fatalf("%s: DecodeBlock(0) = %v and wrote %v, want an error and no write", what, err, dst[0])
	}
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
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
