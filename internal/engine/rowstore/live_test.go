package rowstore

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func liveVal(id timeseries.ID, hour int) float64 {
	return float64(id)*1000 + float64(hour) + 0.25
}

func liveTemp(hour int) float64 { return 10 + 0.5*float64(hour) }

func hourBatch(ids []timeseries.ID, hour int) []core.Reading {
	batch := make([]core.Reading, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, core.Reading{
			ID: id, Hour: hour,
			Consumption: liveVal(id, hour),
			Temperature: liveTemp(hour),
		})
	}
	return batch
}

func drainSnap(t *testing.T, cur core.Cursor) map[timeseries.ID][]float64 {
	t.Helper()
	out := make(map[timeseries.ID][]float64)
	var prev timeseries.ID
	for {
		s, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.ID <= prev {
			t.Fatalf("cursor order: %d after %d", s.ID, prev)
		}
		prev = s.ID
		out[s.ID] = s.Readings
	}
	return out
}

func TestLiveAppendSnapshot(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 4, 2)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			base := make(map[timeseries.ID][]float64)
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
				got, _, err := e.table.readSeries(s.ID)
				if err != nil {
					t.Fatal(err)
				}
				base[s.ID] = got.Readings
			}
			const extra = 48
			for h := baseN; h < baseN+extra; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			// The base view stays frozen at the published series length.
			for _, id := range ids {
				s, _, err := e.table.readSeries(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Readings) != baseN {
					t.Fatalf("base view of %d grew to %d hours", id, len(s.Readings))
				}
			}
			cur, ep, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if ep != extra {
				t.Errorf("epoch = %d, want %d", ep, extra)
			}
			rows := drainSnap(t, cur)
			for _, id := range ids {
				got := rows[id]
				if len(got) != baseN+extra {
					t.Fatalf("household %d: %d hours, want %d", id, len(got), baseN+extra)
				}
				for h := 0; h < baseN; h++ {
					if got[h] != base[id][h] {
						t.Fatalf("household %d hour %d: base reading changed", id, h)
					}
				}
				for h := baseN; h < baseN+extra; h++ {
					if got[h] != liveVal(id, h) {
						t.Fatalf("household %d hour %d: %v, want %v", id, h, got[h], liveVal(id, h))
					}
				}
			}
			temp, err := cur.Temperature()
			if err != nil {
				t.Fatal(err)
			}
			if len(temp.Values) != baseN+extra {
				t.Fatalf("temperature covers %d hours, want %d", len(temp.Values), baseN+extra)
			}
			for h := baseN; h < baseN+extra; h++ {
				if temp.Values[h] != liveTemp(h) {
					t.Fatalf("temperature hour %d: %v, want %v", h, temp.Values[h], liveTemp(h))
				}
			}
		})
	}
}

func TestLiveSnapshotIsolation(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 3, 1)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
			}
			for h := baseN; h < baseN+24; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			cur, ep, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			for h := baseN + 24; h < baseN+48; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for id, row := range drainSnap(t, cur) {
					if len(row) != baseN+24 {
						t.Fatalf("pass %d: household %d has %d hours inside an epoch-%d snapshot, want %d",
							pass, id, len(row), ep, baseN+24)
					}
				}
				if err := cur.Reset(); err != nil {
					t.Fatal(err)
				}
			}
			cur2, ep2, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur2.Close()
			if ep2 != ep+24 {
				t.Errorf("second epoch = %d, want %d", ep2, ep+24)
			}
			for id, row := range drainSnap(t, cur2) {
				if len(row) != baseN+48 {
					t.Fatalf("household %d: fresh snapshot has %d hours, want %d", id, len(row), baseN+48)
				}
			}
		})
	}
}

func TestLiveDuplicateGapAndNewHousehold(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 2, 1)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
			}
			var day []core.Reading
			for h := baseN; h < baseN+24; h++ {
				day = append(day, hourBatch(ids, h)...)
			}
			if err := e.Append(day); err != nil {
				t.Fatal(err)
			}
			// Redelivery is an idempotent no-op.
			if err := e.Append(day); err != nil {
				t.Fatalf("redelivery: %v", err)
			}
			// A brand-new household starts at hour 0 and rides the same
			// temperature column.
			nb := []core.Reading{
				{ID: 9999, Hour: 0, Consumption: liveVal(9999, 0), Temperature: liveTemp(0)},
				{ID: 9999, Hour: 1, Consumption: liveVal(9999, 1), Temperature: liveTemp(1)},
			}
			if err := e.Append(nb); err != nil {
				t.Fatal(err)
			}
			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			rows := drainSnap(t, cur)
			if len(rows) != len(ids)+1 {
				t.Fatalf("snapshot has %d households, want %d", len(rows), len(ids)+1)
			}
			for _, id := range ids {
				if len(rows[id]) != baseN+24 {
					t.Fatalf("household %d: %d hours, want %d (redelivery must not double-apply)",
						id, len(rows[id]), baseN+24)
				}
			}
			if got := rows[9999]; len(got) != 2 || got[0] != liveVal(9999, 0) || got[1] != liveVal(9999, 1) {
				t.Fatalf("new household: %v", got)
			}
			// Errors: gap, negative hour, bad id.
			if err := e.Append([]core.Reading{{ID: ids[0], Hour: baseN + 30}}); err == nil || !strings.Contains(err.Error(), "gap") {
				t.Errorf("gap: err = %v", err)
			}
			if err := e.Append([]core.Reading{{ID: ids[0], Hour: -2}}); err == nil {
				t.Error("negative hour: want error")
			}
			if err := e.Append([]core.Reading{{ID: 0, Hour: 0}}); err == nil {
				t.Error("zero household id: want error")
			}
		})
	}
}

func TestLiveDurableAcrossReopen(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 3, 2)
			dir := t.TempDir()
			e1 := New(dir, WithLayout(layout))
			if _, err := e1.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
			}
			for h := baseN; h < baseN+24; h++ {
				if err := e1.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}
			// Live tuples are ordinary pages: a reopened engine recovers
			// them from the index even though seriesLen never advanced.
			e2 := New(dir)
			if err := e2.Open(); err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			cur, ep, err := e2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if ep != 0 {
				t.Errorf("epoch after reopen = %d, want 0", ep)
			}
			for _, id := range ids {
				row := drainSnap(t, cur)[id]
				if len(row) != baseN+24 {
					t.Fatalf("household %d: %d hours after reopen, want %d", id, len(row), baseN+24)
				}
				if row[baseN] != liveVal(id, baseN) {
					t.Fatalf("household %d: recovered tail mismatch", id)
				}
				if err := cur.Reset(); err != nil {
					t.Fatal(err)
				}
			}
			temp, err := cur.Temperature()
			if err != nil {
				t.Fatal(err)
			}
			if len(temp.Values) != baseN+24 {
				t.Errorf("recovered temperature covers %d hours, want %d", len(temp.Values), baseN+24)
			}
		})
	}
}

// TestReopenKeepsBaseView: a household that only live Append created
// stays out of the base view across Close and Open, in both layouts.
// Open used to list it among the loaded households, its day of readings
// zero-padded to the published series length, and Temperature read that
// padded row when the household's ID sorted first, as 7 does here.
func TestReopenKeepsBaseView(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			ds, err := seed.Generate(seed.Config{Consumers: 4, Days: 2, Seed: 5, FirstID: 100})
			if err != nil {
				t.Fatal(err)
			}
			src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			e1 := New(dir, WithLayout(layout))
			if _, err := e1.Load(src); err != nil {
				t.Fatal(err)
			}
			const newID = 7
			var day []core.Reading
			for h := 0; h < 24; h++ {
				day = append(day, core.Reading{ID: newID, Hour: h, Consumption: liveVal(newID, h), Temperature: ds.Temperature.Values[h]})
			}
			if err := e1.Append(day); err != nil {
				t.Fatal(err)
			}
			baseView := func(e *Engine) (map[timeseries.ID][]float64, []float64) {
				t.Helper()
				cur, err := cursortest.Open(e)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				temp, err := e.Temperature()
				if err != nil {
					t.Fatal(err)
				}
				return drainSnap(t, cur), temp.Values
			}
			before, tempBefore := baseView(e1)
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}
			e2 := New(dir)
			if err := e2.Open(); err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			after, tempAfter := baseView(e2)
			if len(before) != len(ds.Series) || len(after) != len(before) {
				t.Fatalf("base view of %d households before Close and %d after Open, want %d", len(before), len(after), len(ds.Series))
			}
			for id, row := range before {
				if !reflect.DeepEqual(after[id], row) {
					t.Fatalf("household %d: base view changed across Close and Open", id)
				}
			}
			if !reflect.DeepEqual(tempAfter, tempBefore) {
				t.Fatal("temperature changed across Close and Open")
			}
			// The live household is still stored: a snapshot sees it and
			// its next hour appends without a gap.
			if err := e2.Append(hourBatch([]timeseries.ID{newID}, 24)); err != nil {
				t.Fatal(err)
			}
			cur, _, err := e2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if got := drainSnap(t, cur)[newID]; len(got) != 25 || got[23] != liveVal(newID, 23) {
				t.Fatalf("live household after reopen: %v", got)
			}
		})
	}
}

func TestLiveAppendWithoutLoad(t *testing.T) {
	e := New(t.TempDir())
	if err := e.Append(hourBatch([]timeseries.ID{1}, 0)); !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("append without load: err = %v", err)
	}
	if _, _, err := e.Snapshot(); !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("snapshot without load: err = %v", err)
	}
}
