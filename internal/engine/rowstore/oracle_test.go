package rowstore

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// indexSeries is the oracle of the heap walk: it decodes household id's
// first n hours, and the temperatures beside them, through
// index.scanRange alone, fetching each entry's tuple and checking it
// against the entry's key. It never follows the heap chain.
func indexSeries(t *testing.T, tb *table, id timeseries.ID, n int) (cons, temp []float64) {
	t.Helper()
	cons, temp = make([]float64, n), make([]float64, n)
	hours := 0
	err := tb.index.scanRange(key{ID: uint64(id)}, key{ID: uint64(id) + 1}, func(k key, tid TID) error {
		tu, err := tb.heap.get(tid)
		if err != nil {
			return err
		}
		switch tb.layout {
		case LayoutRows:
			if len(tu) != rowTupleSize || getU64(tu, 0) != k.ID || uint64(getU32(tu, 8)) != k.Seq {
				return fmt.Errorf("entry (%d, %d) addresses a tuple of %d bytes of household %d, hour %d",
					k.ID, k.Seq, len(tu), getU64(tu, 0), getU32(tu, 8))
			}
			if k.Seq < uint64(n) {
				cons[k.Seq] = math.Float64frombits(getU64(tu, 20))
				temp[k.Seq] = math.Float64frombits(getU64(tu, 12))
			}
		case LayoutArrays:
			owner, start, count, err := chunkBounds(tu)
			if err != nil || owner != k.ID || start != uint64(hours) || uint64(len(tu)) != 16+16*count {
				return fmt.Errorf("entry (%d, %d) addresses chunk [%d, +%d) of household %d, want hour %d (%v)",
					k.ID, k.Seq, start, count, owner, hours, err)
			}
			for i := 0; i < int(count) && hours+i < n; i++ {
				cons[hours+i] = math.Float64frombits(getU64(tu, 16+i*8))
				temp[hours+i] = math.Float64frombits(getU64(tu, 16+(int(count)+i)*8))
			}
			hours += int(count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cons, temp
}

// nanRow is a row of n NaNs: a row a cursor takes back holds the
// readings of an earlier household, and a read must overwrite them all.
func nanRow(n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = math.NaN()
	}
	return row
}

// drainDirty drains cur, handing it before each Next a row of NaNs of
// the length the next household reads at, n(i) for the i-th, and fails
// unless every series is read into the row it was handed.
func drainDirty(t *testing.T, cur core.Cursor, n func(i int) int) []*timeseries.Series {
	t.Helper()
	var out []*timeseries.Series
	for i := 0; ; i++ {
		row := nanRow(n(i))
		cur.(core.RowTaker).TakeRow(row)
		s, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(row) == 0 || &s.Readings[0] != &row[0] {
			t.Fatalf("household %d was not read into the row handed over", s.ID)
		}
		out = append(out, s)
	}
}

// checkOracle compares every read of the store with indexSeries, bit
// for bit: the base view through the scan cursor (W=1), two partition
// cursors (W=2) and the temperature column, a fresh snapshot of the
// full committed state, and each held snapshot at the lengths it
// captured. The scan cursor and the snapshots read into rows of NaNs
// too, as they do when the partition loop hands back the rows of a
// block, and every household read past the hours it stores must read
// them as zero into such a row as into a fresh one.
func checkOracle(t *testing.T, e *Engine, held map[core.Cursor]map[timeseries.ID]int) {
	t.Helper()
	var want []*timeseries.Series
	for _, id := range e.ids {
		cons, _ := indexSeries(t, e.table, id, e.table.seriesLen)
		want = append(want, &timeseries.Series{ID: id, Readings: cons})
	}
	cur, err := cursortest.Open(e)
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, drainAll(t, cur), want)
	if err := cur.Reset(); err != nil {
		t.Fatal(err)
	}
	sameSeries(t, drainDirty(t, cur, func(int) int { return e.table.seriesLen }), want)
	sameSeries(t, drainPartitions(t, e, 2), want)
	temp, err := e.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	_, wantTemp := indexSeries(t, e.table, e.ids[0], e.table.seriesLen)
	sameBits(t, "temperature", temp.Values, wantTemp)

	snap, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	lens := map[timeseries.ID]int{}
	for id, n := range e.live.lens {
		lens[id] = n
	}
	held[snap] = lens
	for cur, lens := range held {
		if err := cur.Reset(); err != nil {
			t.Fatal(err)
		}
		rows := drainSnap(t, cur)
		if len(rows) != len(lens) {
			t.Fatalf("snapshot of %d households, want %d", len(rows), len(lens))
		}
		for id, n := range lens {
			cons, _ := indexSeries(t, e.table, id, n)
			sameBits(t, fmt.Sprintf("snapshot, household %d", id), rows[id], cons)
		}
		ids := make([]timeseries.ID, 0, len(lens))
		for id := range lens {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		if err := cur.Reset(); err != nil {
			t.Fatal(err)
		}
		dirty := drainDirty(t, cur, func(i int) int {
			if i < len(ids) {
				return lens[ids[i]]
			}
			return 0
		})
		for _, s := range dirty {
			sameBits(t, fmt.Sprintf("snapshot into a dirty row, household %d", s.ID), s.Readings, rows[s.ID])
		}
	}
	delete(held, snap)

	// A day past every household's stored hours: the walk stops short,
	// and the hours stored nowhere read as zero.
	for id, n := range lens {
		n += 24
		fresh, err := e.readSeriesShared(id, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		cons, _ := indexSeries(t, e.table, id, n)
		sameBits(t, fmt.Sprintf("household %d past its hours", id), fresh.Readings, cons)
		row := nanRow(n)
		rd := &reader{row: row}
		got, err := e.readSeriesShared(id, n, rd)
		rd.release(e)
		if err != nil {
			t.Fatal(err)
		}
		if &got.Readings[0] != &row[0] {
			t.Fatalf("household %d was not read into the row handed over", id)
		}
		sameBits(t, fmt.Sprintf("household %d past its hours, into a dirty row", id), got.Readings, cons)
	}
}

// hoursOf is one household's live hours [from, to) as a batch.
func hoursOf(id timeseries.ID, from, to int) []core.Reading {
	var batch []core.Reading
	for h := from; h < to; h++ {
		batch = append(batch, core.Reading{ID: id, Hour: h, Consumption: liveVal(id, h), Temperature: liveTemp(h)})
	}
	return batch
}

// TestWalkMatchesIndexOracle reads stores through the heap walk and
// through indexSeries in every state a household's tuples can be
// stored in: after the bulk load, which clusters them; after a day
// appended to every household in one batch, whose hours follow every
// household's; after live Appends, before and after a checkpoint and
// after a crash whose log replays on reopen, which interleave
// households; and through a
// snapshot whose prefix ends inside a run the walk reads, because the
// last loaded household's first live hours follow its loaded ones in
// the heap. The reads must agree bit for bit at every pool, both widths
// and in both layouts.
func TestWalkMatchesIndexOracle(t *testing.T) {
	src, ds := writeExact(t, 4, 40)
	delta := deltaFor(t, ds, 1)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		for _, pool := range runPools {
			t.Run(fmt.Sprintf("%v/pool%d", layout, pool), func(t *testing.T) {
				open := func(dir string) *Engine {
					t.Helper()
					e := New(dir, WithPoolPages(pool), WithWAL(wal.SyncBatch))
					if err := e.Open(); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = e.Close() })
					return e
				}
				load := func() string {
					t.Helper()
					dir := t.TempDir()
					loader := New(dir, WithLayout(layout))
					if _, err := loader.Load(src); err != nil {
						t.Fatal(err)
					}
					if err := loader.Close(); err != nil {
						t.Fatal(err)
					}
					return dir
				}
				held := map[core.Cursor]map[timeseries.ID]int{}

				e := open(load())
				for _, s := range ds.Series {
					cons, _ := indexSeries(t, e.table, s.ID, e.table.seriesLen)
					sameBits(t, fmt.Sprintf("oracle, household %d", s.ID), cons, s.Readings)
				}
				checkOracle(t, e, held)
				if err := e.Append(core.BatchOf(delta, e.table.seriesLen)); err != nil {
					t.Fatal(err)
				}
				checkOracle(t, e, held)

				dir := load()
				e = open(dir)
				ids, base := e.ids, e.table.seriesLen
				last := ids[len(ids)-1]
				if err := e.Append(hoursOf(last, base, base+10)); err != nil {
					t.Fatal(err)
				}
				cut, _, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer cut.Close()
				held[cut] = map[timeseries.ID]int{}
				for id, n := range e.live.lens {
					held[cut][id] = n
				}
				if err := e.Append(hoursOf(last, base+10, base+20)); err != nil {
					t.Fatal(err)
				}
				// The walk alone reads the cut prefix: it ends inside a run.
				r := seriesRead{bp: e.bp, id: uint64(last), rows: layout == LayoutRows, cons: make([]float64, base+10)}
				err = r.walk(tidOf(t, e.table, key{ID: uint64(last)}))
				if r.hp != nil {
					e.bp.unpin(r.hp, false)
				}
				if err != nil || r.hours != base+10 {
					t.Fatalf("the walk read %d of the snapshot's %d hours (%v)", r.hours, base+10, err)
				}
				for h := base; h < base+5; h++ {
					if err := e.Append(hourBatch(ids[:len(ids)-1], h)); err != nil {
						t.Fatal(err)
					}
				}
				checkOracle(t, e, held)

				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				checkOracle(t, e, held)

				for h := base + 5; h < base+8; h++ {
					if err := e.Append(hourBatch(ids[:len(ids)-1], h)); err != nil {
						t.Fatal(err)
					}
				}
				e.Crash()
				checkOracle(t, open(dir), map[core.Cursor]map[timeseries.ID]int{})
			})
		}
	}
}
