package filestore

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func makeDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLoadSplitsUnpartitioned(t *testing.T) {
	ds := makeDataset(t, 5, 10)
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	splitDir := filepath.Join(t.TempDir(), "split")
	e := New(WithSplitDir(splitDir))
	st, err := e.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Consumers != 5 {
		t.Errorf("consumers = %d", st.Consumers)
	}
	if !e.src.Partitioned {
		t.Error("load did not split into per-consumer files")
	}
	if len(e.src.DataFiles) != 5 {
		t.Errorf("split files = %d", len(e.src.DataFiles))
	}
	if err := e.CleanSplitDir(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPartitionedPassThrough(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	st, err := e.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Consumers != 3 || st.Readings != int64(3*10*24) {
		t.Errorf("stats = %+v", st)
	}
	if e.src != src {
		t.Error("partitioned source should pass through unchanged")
	}
}

func TestRunAllTasksMatchReference(t *testing.T) {
	ds := makeDataset(t, 4, 30)
	want := func(task core.Task) *core.Results {
		r, err := core.RunReference(readBack(t, ds), core.Spec{Task: task, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, partitioned := range []bool{true, false} {
		var src *meterdata.Source
		var err error
		dir := t.TempDir()
		if partitioned {
			src, err = meterdata.WritePartitioned(dir, ds, meterdata.FormatReadingPerLine)
		} else {
			src, err = meterdata.WriteUnpartitioned(dir, ds, meterdata.FormatSeriesPerLine)
		}
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.LoadDirect(src); err != nil {
			t.Fatal(err)
		}
		for _, task := range core.Tasks {
			got, err := e.Run(core.Spec{Task: task, K: 2})
			if err != nil {
				t.Fatalf("partitioned=%v task=%v: %v", partitioned, task, err)
			}
			w := want(task)
			if got.Count() != w.Count() {
				t.Fatalf("partitioned=%v task=%v: count %d vs %d",
					partitioned, task, got.Count(), w.Count())
			}
			if task == core.TaskThreeLine {
				for i := range w.ThreeLines {
					if math.Abs(got.ThreeLines[i].HeatingGradient-w.ThreeLines[i].HeatingGradient) > 1e-9 {
						t.Fatalf("3-line gradient mismatch at %d", i)
					}
				}
			}
		}
	}
}

// readBack round-trips the dataset through CSV so reference results use
// the same precision as the engines see.
func readBack(t *testing.T, ds *timeseries.Dataset) *timeseries.Dataset {
	t.Helper()
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	back, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestParallelMatchesSequential(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	seq, err := e.Run(core.Spec{Task: core.TaskHistogram, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Run(core.Spec{Task: core.TaskHistogram, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Count() != par.Count() {
		t.Fatalf("counts: %d vs %d", seq.Count(), par.Count())
	}
	// Parallel preserves per-worker order; verify as a set by ID.
	seen := map[timeseries.ID]bool{}
	for _, h := range par.Histograms {
		seen[h.ID] = true
	}
	for _, h := range seq.Histograms {
		if !seen[h.ID] {
			t.Fatalf("consumer %d missing from parallel run", h.ID)
		}
	}
}

func TestRunWithoutLoad(t *testing.T) {
	e := New()
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("err = %v, want ErrNotLoaded", err)
	}
}

func TestCapabilitiesMatchTable1(t *testing.T) {
	e := New()
	c := e.Capabilities()
	if c.Histogram != core.SupportBuiltin || c.CosineSimilarity != core.SupportNone {
		t.Errorf("capabilities = %+v", c)
	}
	if e.Name() == "" {
		t.Error("empty name")
	}
}

func TestAppendToPartitionedSource(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	delta := makeDataset(t, 3, 1)
	if err := meterdata.AppendToSource(e.Source(), delta, 10*24); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Histograms {
		if h.Histogram.Total() != int64(11*24) {
			t.Fatalf("consumer %d total = %d", h.ID, h.Histogram.Total())
		}
	}
}

func TestAppendToSeriesPerLineSource(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatSeriesPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.LoadDirect(src); err != nil {
		t.Fatal(err)
	}
	delta := makeDataset(t, 3, 1)
	if err := meterdata.AppendToSource(e.Source(), delta, 10*24); err != nil {
		t.Fatal(err)
	}
	back, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range back.Series {
		if s.Days() != 11 {
			t.Fatalf("series %d has %d days", s.ID, s.Days())
		}
	}
	if len(back.Temperature.Values) != 11*24 {
		t.Errorf("temperature has %d values", len(back.Temperature.Values))
	}
}
