package exec_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// datasetBatch returns the readings for one absolute hour of ds.
func datasetBatch(ds *timeseries.Dataset, hour int) []core.Reading {
	batch := make([]core.Reading, 0, len(ds.Series))
	for _, s := range ds.Series {
		batch = append(batch, core.Reading{
			ID:          s.ID,
			Hour:        hour,
			Consumption: s.Readings[hour],
			Temperature: ds.Temperature.Values[hour],
		})
	}
	return batch
}

// datasetPrefix copies the first n hours of ds into a fresh dataset.
func datasetPrefix(ds *timeseries.Dataset, n int) *timeseries.Dataset {
	out := &timeseries.Dataset{
		Temperature: &timeseries.Temperature{Values: append([]float64(nil), ds.Temperature.Values[:n]...)},
	}
	for _, s := range ds.Series {
		out.Series = append(out.Series, &timeseries.Series{
			ID:       s.ID,
			Readings: append([]float64(nil), s.Readings[:n]...),
		})
	}
	return out
}

// TestRunSnapshotLiveEngines runs every task over snapshots of both
// append-driven engines mid-ingestion and checks the results are
// bit-identical to the reference over the same prefix — i.e. a
// snapshot is exactly "the dataset as of its epoch", no matter how
// many appends land while the query runs, at one worker and split
// across two and four. A store of two households runs at four workers
// too: its snapshot splits into fewer partitions than workers, which
// share the four kernel slots.
func TestRunSnapshotLiveEngines(t *testing.T) {
	for _, size := range []struct {
		name      string
		consumers int
		workers   []int
	}{
		{"", 4, []int{1, 2, 4}},
		{"two_households_", 2, []int{4}},
	} {
		ds := makeDataset(t, size.consumers, 14)
		hours := len(ds.Temperature.Values)
		baseN := hours / 2 // day-aligned: 14 days halves to 7

		// The rowstore starts from a loaded text-format base; text
		// round-tripping perturbs the last few ULPs, so its reference is
		// the round-tripped base spliced with the exact live tail.
		src, err := meterdata.WriteUnpartitioned(t.TempDir(), datasetPrefix(ds, baseN), meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		baseDS, err := meterdata.ReadDataset(src)
		if err != nil {
			t.Fatal(err)
		}
		rowRef := datasetPrefix(baseDS, baseN)
		rowRef.Temperature.Values = append(rowRef.Temperature.Values, ds.Temperature.Values[baseN:]...)
		for i, s := range rowRef.Series {
			if s.ID != ds.Series[i].ID {
				t.Fatalf("series order: %d vs %d", s.ID, ds.Series[i].ID)
			}
			s.Readings = append(s.Readings, ds.Series[i].Readings[baseN:]...)
		}

		engines := []struct {
			name string
			mk   func(t *testing.T) liveEngine
			base int                 // hours already present before live appends
			ref  *timeseries.Dataset // what the engine should hold at hour n
		}{
			{"colstore", func(t *testing.T) liveEngine {
				return colstore.New(t.TempDir())
			}, 0, ds},
			{"rowstore", func(t *testing.T) liveEngine {
				e := rowstore.New(t.TempDir())
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
				return e
			}, baseN, rowRef},
		}

		for _, workers := range size.workers {
			for _, tc := range engines {
				t.Run(fmt.Sprintf("%s_%sw%d", tc.name, size.name, workers), func(t *testing.T) {
					eng := tc.mk(t)
					defer eng.Release()
					n := baseN // hours visible so far
					for h := tc.base; h < n; h++ {
						if err := eng.Append(datasetBatch(tc.ref, h)); err != nil {
							t.Fatal(err)
						}
					}
					if parts := splitCount(t, eng, workers); parts < 1 || parts > size.consumers {
						t.Fatalf("snapshot of %d households split into %d partitions", size.consumers, parts)
					}
					runSnapshotTasks(t, eng, tc.ref, tc.base, n, workers)
				})
			}
		}
	}
}

// TestAppendDayCheckpointReopen adds a day to a loaded year the way the
// updates experiment does, one Append batch and a Checkpoint, on both
// stores (the row store in both layouts), and then reopens the store.
// Every task over a snapshot is bit-identical to the reference over the
// year and the day: before the checkpoint, after it and after the
// reopen.
func TestAppendDayCheckpointReopen(t *testing.T) {
	const year = 365 * timeseries.HoursPerDay
	ds := makeDataset(t, 6, 366)
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), datasetPrefix(ds, year), meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	// The stored year is the text round trip of the generated one; the
	// day is appended exact.
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	day := &timeseries.Dataset{Temperature: &timeseries.Temperature{Values: ds.Temperature.Values[year:]}}
	for i, s := range ds.Series {
		day.Series = append(day.Series, &timeseries.Series{ID: s.ID, Readings: s.Readings[year:]})
		ref.Series[i].Readings = append(ref.Series[i].Readings, s.Readings[year:]...)
	}
	ref.Temperature.Values = append(ref.Temperature.Values, day.Temperature.Values...)

	type store interface {
		liveEngine
		Checkpoint() error
	}
	rowstoreIn := func(layout rowstore.Layout) func(t *testing.T, dir string, load bool) store {
		return func(t *testing.T, dir string, load bool) store {
			e := rowstore.New(dir, rowstore.WithLayout(layout))
			t.Cleanup(func() { _ = e.Close() })
			if !load {
				if err := e.Open(); err != nil {
					t.Fatal(err)
				}
				return e
			}
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			return e
		}
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T, dir string, load bool) store
	}{
		{"colstore", func(t *testing.T, dir string, load bool) store {
			e := colstore.New(dir)
			t.Cleanup(func() { _ = e.Release() })
			if load {
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
			}
			return e
		}},
		{"rowstore_rows", rowstoreIn(rowstore.LayoutRows)},
		{"rowstore_arrays", rowstoreIn(rowstore.LayoutArrays)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(stage string, eng store) {
				t.Helper()
				for _, task := range core.Tasks {
					spec := core.Spec{Task: task, K: 3, Workers: 2}
					got, _, err := exec.RunSnapshot(context.Background(), eng, spec)
					if err != nil {
						t.Fatalf("%s, %v: %v", stage, task, err)
					}
					want, err := core.RunReference(ref, spec)
					if err != nil {
						t.Fatal(err)
					}
					cursortest.CompareResults(t, got, want)
				}
			}
			dir := t.TempDir()
			eng := tc.open(t, dir, true)
			if err := eng.Append(core.BatchOf(day, year)); err != nil {
				t.Fatal(err)
			}
			check("appended", eng)
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("checkpointed", eng)
			if err := eng.Release(); err != nil {
				t.Fatal(err)
			}
			if c, ok := eng.(interface{ Close() error }); ok {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
			check("reopened", tc.open(t, dir, false))
		})
	}
}

// runSnapshotTasks runs every task over a snapshot of eng, which holds
// the first n hours of ref (base of them from its load), and holds it
// to the reference; then a day lands, and the next snapshot must hold
// it and the one before must not.
func runSnapshotTasks(t *testing.T, eng liveEngine, ref *timeseries.Dataset, base, n, workers int) {
	t.Helper()
	ctx := context.Background()
	for _, task := range core.Tasks {
		spec := core.Spec{Task: task, K: 3, Workers: workers}
		got, epoch, err := exec.RunSnapshot(ctx, eng, spec)
		if err != nil {
			t.Fatalf("%v: %v", task, err)
		}
		if epoch != core.Epoch(n-base) {
			t.Fatalf("%v: epoch = %d, want %d", task, epoch, n-base)
		}
		want, err := core.RunReference(datasetPrefix(ref, n), spec)
		if err != nil {
			t.Fatal(err)
		}
		cursortest.CompareResults(t, got, want)

		// Appends racing the next snapshot move the epoch but never
		// leak into an already-taken one. Full days keep the PAR task's
		// day-alignment requirement intact.
		for h := n; h < n+timeseries.HoursPerDay; h++ {
			if err := eng.Append(datasetBatch(ref, h)); err != nil {
				t.Fatal(err)
			}
		}
		got2, epoch2, err := exec.RunSnapshot(ctx, eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		if epoch2 <= epoch {
			t.Fatalf("%v: epoch did not advance: %d -> %d", task, epoch, epoch2)
		}
		want2, err := core.RunReference(datasetPrefix(ref, n+timeseries.HoursPerDay), spec)
		if err != nil {
			t.Fatal(err)
		}
		cursortest.CompareResults(t, got2, want2)
		n += timeseries.HoursPerDay
	}
}

// splitCount counts the partitions a snapshot of eng splits into at
// workers.
func splitCount(t *testing.T, eng liveEngine, workers int) int {
	t.Helper()
	snap, _, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	curs, err := snap.NewCursors(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range curs {
		_ = cur.Close()
	}
	return len(curs)
}

type liveEngine interface {
	core.Appender
	core.Engine
}

// makeDataset mirrors the exec package's internal test helper; external
// test packages cannot share it.
func makeDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
