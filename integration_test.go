package smartbench

// Cross-engine integration test: every platform analogue must produce
// identical analytics for the same source data — the five platforms in
// the paper compute the same benchmark, only differently.

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/cluster"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// buildWorkload generates data via the full pipeline (seed -> paper
// generator -> CSV) so the integration test also exercises the data
// generator end to end.
func buildWorkload(t *testing.T) (*meterdata.Source, *timeseries.Dataset) {
	t.Helper()
	seedDS, err := seed.Generate(seed.Config{Consumers: 10, Days: 60, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := generator.New(seedDS, generator.Config{Clusters: 4, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.Dataset(8, seedDS.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, ref
}

func allFiveEngines(t *testing.T) []core.Engine {
	t.Helper()
	sim, err := distsim.New(distsim.Config{
		Nodes: 4, SlotsPerNode: 4,
		TransferLatency: 10 * time.Microsecond, BytesPerSecond: 1 << 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := dfs.New(sim, dfs.WithBlockSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	rowE := rowstore.New(t.TempDir())
	t.Cleanup(func() { rowE.Close() })
	return []core.Engine{
		filestore.New(filestore.WithSplitDir(t.TempDir() + "/split")),
		rowE,
		colstore.New(t.TempDir()),
		cluster.NewSpark(fsys),
		cluster.NewHive(fsys, 0, false),
	}
}

func TestAllEnginesAgree(t *testing.T) {
	src, ref := buildWorkload(t)
	engines := allFiveEngines(t)
	for _, e := range engines {
		if _, err := e.Load(src); err != nil {
			t.Fatalf("%s load: %v", e.Name(), err)
		}
	}
	// Each task runs per engine at one worker (the inline loop) and at
	// four (the pipeline). Both must match the single-threaded reference.
	for _, task := range core.Tasks {
		want, err := core.RunReference(ref, core.Spec{Task: task, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			spec := core.Spec{Task: task, K: 3, Workers: workers}
			for _, e := range engines {
				got, err := e.Run(spec)
				if err != nil {
					t.Fatalf("%s %v (W=%d): %v", e.Name(), task, workers, err)
				}
				if got.Count() != want.Count() {
					t.Fatalf("%s %v (W=%d): count %d vs %d", e.Name(), task, workers, got.Count(), want.Count())
				}
				assertResultsEqual(t, e.Name(), got, want)
			}
		}
	}
}

func assertResultsEqual(t *testing.T, engine string, got, want *core.Results) {
	t.Helper()
	const tol = 1e-9
	switch want.Task {
	case core.TaskHistogram:
		for i := range want.Histograms {
			g, w := got.Histograms[i], want.Histograms[i]
			if g.ID != w.ID {
				t.Fatalf("%s histogram %d: ID %d vs %d", engine, i, g.ID, w.ID)
			}
			for b := range w.Histogram.Counts {
				if g.Histogram.Counts[b] != w.Histogram.Counts[b] {
					t.Fatalf("%s histogram %d bucket %d: %d vs %d",
						engine, i, b, g.Histogram.Counts[b], w.Histogram.Counts[b])
				}
			}
		}
	case core.TaskThreeLine:
		for i := range want.ThreeLines {
			g, w := got.ThreeLines[i], want.ThreeLines[i]
			if g.ID != w.ID ||
				math.Abs(g.HeatingGradient-w.HeatingGradient) > tol ||
				math.Abs(g.CoolingGradient-w.CoolingGradient) > tol ||
				math.Abs(g.BaseLoad-w.BaseLoad) > tol {
				t.Fatalf("%s 3-line %d: %+v vs %+v", engine, i, g, w)
			}
		}
	case core.TaskPAR:
		for i := range want.Profiles {
			g, w := got.Profiles[i], want.Profiles[i]
			if g.ID != w.ID {
				t.Fatalf("%s PAR %d: ID mismatch", engine, i)
			}
			for h := range w.Profile {
				if math.Abs(g.Profile[h]-w.Profile[h]) > tol {
					t.Fatalf("%s PAR %d hour %d: %g vs %g",
						engine, i, h, g.Profile[h], w.Profile[h])
				}
			}
		}
	case core.TaskSimilarity:
		for i := range want.Similar {
			g, w := got.Similar[i], want.Similar[i]
			if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
				t.Fatalf("%s similarity %d: shape mismatch", engine, i)
			}
			for j := range w.Matches {
				if g.Matches[j].ID != w.Matches[j].ID ||
					math.Abs(g.Matches[j].Score-w.Matches[j].Score) > tol {
					t.Fatalf("%s similarity %d match %d: %+v vs %+v",
						engine, i, j, g.Matches[j], w.Matches[j])
				}
			}
		}
	}
}

// TestErrNotLoadedConsistency verifies that every engine reports a
// wrapped core.ErrNotLoaded from Run, NewCursor, and Temperature
// before any data has been loaded, so callers can branch on the
// sentinel with errors.Is regardless of platform.
func TestErrNotLoadedConsistency(t *testing.T) {
	for _, e := range allFiveEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			checks := []struct {
				op  string
				err func() error
			}{
				{"Run", func() error {
					_, err := e.Run(core.Spec{Task: core.TaskHistogram})
					return err
				}},
				{"NewCursor", func() error {
					_, err := e.NewCursor()
					return err
				}},
				{"Temperature", func() error {
					_, err := e.Temperature()
					return err
				}},
			}
			for _, c := range checks {
				err := c.err()
				if err == nil {
					t.Errorf("%s on unloaded engine: no error", c.op)
					continue
				}
				if !errors.Is(err, core.ErrNotLoaded) {
					t.Errorf("%s on unloaded engine: %v does not wrap core.ErrNotLoaded", c.op, err)
				}
			}
		})
	}
}

// TestColdWarmConsistency verifies that warm runs return the same
// analytics as cold runs on every engine that supports warming.
func TestColdWarmConsistency(t *testing.T) {
	src, _ := buildWorkload(t)
	type warmable interface {
		core.Engine
		Warm() error
	}
	rowE := rowstore.New(t.TempDir())
	defer rowE.Close()
	engines := []warmable{
		filestore.New(filestore.WithSplitDir(t.TempDir() + "/split")),
		rowE,
		colstore.New(t.TempDir()),
	}
	spec := core.Spec{Task: core.TaskThreeLine}
	for _, e := range engines {
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		if err := e.Release(); err != nil {
			t.Fatal(err)
		}
		cold, err := e.Run(spec)
		if err != nil {
			t.Fatalf("%s cold: %v", e.Name(), err)
		}
		if err := e.Release(); err != nil {
			t.Fatal(err)
		}
		if err := e.Warm(); err != nil {
			t.Fatalf("%s warm: %v", e.Name(), err)
		}
		warm, err := e.Run(spec)
		if err != nil {
			t.Fatalf("%s warm run: %v", e.Name(), err)
		}
		assertResultsEqual(t, e.Name(), warm, cold)
	}
}

// TestBudgetedColstoreAgrees runs every task on a colstore whose
// decoded-block cache is capped well below the raw matrix size, so
// blocks page in and out of the compressed segment file mid-run, and
// demands the same answers as the single-threaded reference at 4
// workers. This is the out-of-core contract: a memory budget changes
// residency, never results.
func TestBudgetedColstoreAgrees(t *testing.T) {
	src, ref := buildWorkload(t)
	raw := int64(len(ref.Series)) * int64(len(ref.Series[0].Readings)) * 8
	budget := raw / 8
	eng := colstore.New(t.TempDir(), colstore.WithMemBudget(budget))
	st, err := eng.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Release() }()
	if st.RawBytes != raw {
		t.Fatalf("load stats raw bytes %d, want %d", st.RawBytes, raw)
	}
	if st.StorageBytes >= raw {
		t.Fatalf("segments not compressed: %d stored vs %d raw", st.StorageBytes, raw)
	}
	for _, task := range core.Tasks {
		want, err := core.RunReference(ref, core.Spec{Task: task, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(core.Spec{Task: task, K: 3, Workers: 4})
		if err != nil {
			t.Fatalf("%v under budget: %v", task, err)
		}
		if got.Count() != want.Count() {
			t.Fatalf("%v: count %d vs %d", task, got.Count(), want.Count())
		}
		assertResultsEqual(t, "colstore-budgeted", got, want)
	}
}
