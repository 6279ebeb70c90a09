package rowstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func writeSource(t testing.TB, consumers, days int) (*meterdata.Source, *timeseries.Dataset) {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	return src, ds
}

// readSeries extracts one consumer's published prefix and the
// temperature column beside it, the way a base cursor's first read does.
func (tb *table) readSeries(id timeseries.ID) (*timeseries.Series, *timeseries.Temperature, error) {
	cons, temp := make([]float64, tb.seriesLen), make([]float64, tb.seriesLen)
	if err := tb.readSeriesInto(id, cons, temp); err != nil {
		return nil, nil, err
	}
	return &timeseries.Series{ID: id, Readings: cons}, &timeseries.Temperature{Values: temp}, nil
}

func TestEngineLoadAndExtract(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 5, 30)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			st, err := e.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			if st.Consumers != 5 {
				t.Errorf("consumers = %d", st.Consumers)
			}
			if st.Readings != int64(5*30*24) {
				t.Errorf("readings = %d", st.Readings)
			}
			if st.StorageBytes <= 0 {
				t.Errorf("storage = %d", st.StorageBytes)
			}
			// Extract each consumer and compare against the source data.
			for _, want := range ds.Series {
				s, temp, err := e.table.readSeries(want.ID)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Readings {
					if math.Abs(s.Readings[i]-want.Readings[i]) > 1e-4 {
						t.Fatalf("consumer %d reading %d: %g vs %g",
							want.ID, i, s.Readings[i], want.Readings[i])
					}
					if math.Abs(temp.Values[i]-ds.Temperature.Values[i]) > 1e-4 {
						t.Fatalf("consumer %d temp %d mismatch", want.ID, i)
					}
				}
			}
		})
	}
}

func TestEngineRunMatchesReference(t *testing.T) {
	src, _ := writeSource(t, 4, 40)
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		e := New(t.TempDir(), WithLayout(layout))
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		for _, task := range core.Tasks {
			spec := core.Spec{Task: task, K: 3}
			got, err := e.Run(spec)
			if err != nil {
				t.Fatalf("%v/%v: %v", layout, task, err)
			}
			want, err := core.RunReference(ref, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("%v/%v: count %d vs %d", layout, task, got.Count(), want.Count())
			}
			compareResults(t, got, want)
		}
		e.Close()
	}
}

// compareResults spot-checks engine output against the reference oracle.
func compareResults(t *testing.T, got, want *core.Results) {
	t.Helper()
	switch got.Task {
	case core.TaskHistogram:
		for i := range want.Histograms {
			g, w := got.Histograms[i], want.Histograms[i]
			if g.ID != w.ID {
				t.Fatalf("histogram %d: ID %d vs %d", i, g.ID, w.ID)
			}
			for b := range w.Histogram.Counts {
				if g.Histogram.Counts[b] != w.Histogram.Counts[b] {
					t.Fatalf("histogram %d bucket %d: %d vs %d",
						i, b, g.Histogram.Counts[b], w.Histogram.Counts[b])
				}
			}
		}
	case core.TaskThreeLine:
		for i := range want.ThreeLines {
			g, w := got.ThreeLines[i], want.ThreeLines[i]
			if g.ID != w.ID {
				t.Fatalf("3-line %d: ID mismatch", i)
			}
			if math.Abs(g.HeatingGradient-w.HeatingGradient) > 1e-6 {
				t.Fatalf("3-line %d: heating %g vs %g", i, g.HeatingGradient, w.HeatingGradient)
			}
		}
	case core.TaskPAR:
		for i := range want.Profiles {
			g, w := got.Profiles[i], want.Profiles[i]
			if g.ID != w.ID {
				t.Fatalf("PAR %d: ID mismatch", i)
			}
			for h := range w.Profile {
				if math.Abs(g.Profile[h]-w.Profile[h]) > 1e-6 {
					t.Fatalf("PAR %d hour %d: %g vs %g", i, h, g.Profile[h], w.Profile[h])
				}
			}
		}
	case core.TaskSimilarity:
		for i := range want.Similar {
			g, w := got.Similar[i], want.Similar[i]
			if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
				t.Fatalf("similarity %d: shape mismatch", i)
			}
			for j := range w.Matches {
				if g.Matches[j].ID != w.Matches[j].ID ||
					math.Abs(g.Matches[j].Score-w.Matches[j].Score) > 1e-9 {
					t.Fatalf("similarity %d match %d: %+v vs %+v",
						i, j, g.Matches[j], w.Matches[j])
				}
			}
		}
	}
}

func TestEngineWarmAndRelease(t *testing.T) {
	src, _ := writeSource(t, 3, 20)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	if e.cache == nil {
		t.Fatal("warm did not populate cache")
	}
	r, err := e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 3 {
		t.Errorf("count = %d", r.Count())
	}
	if err := e.Release(); err != nil {
		t.Fatal(err)
	}
	if e.cache != nil {
		t.Error("release kept cache")
	}
	// Still runnable cold after release.
	r, err = e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil || r.Count() != 3 {
		t.Errorf("cold rerun: count=%d err=%v", r.Count(), err)
	}
}

func TestEngineRunWithoutLoad(t *testing.T) {
	e := New(t.TempDir())
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("err = %v, want ErrNotLoaded", err)
	}
	if err := e.Warm(); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("warm err = %v", err)
	}
}

// TestEngineParallelRun: every task, on both layouts, at one, two and
// four workers, is the reference run over the same text, bit for bit.
func TestEngineParallelRun(t *testing.T) {
	src, _ := writeSource(t, 6, 20)
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		e := New(t.TempDir(), WithLayout(layout))
		defer e.Close()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		for _, task := range core.Tasks {
			want, err := core.RunReference(ref, core.Spec{Task: task, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				if err := e.Release(); err != nil {
					t.Fatal(err)
				}
				got, err := e.Run(core.Spec{Task: task, K: 3, Workers: workers})
				if err != nil {
					t.Fatalf("%v/%v/W%d: %v", layout, task, workers, err)
				}
				got.Phases = nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v/W%d differs from the reference run", layout, task, workers)
					compareResults(t, got, want)
				}
			}
		}
	}
}

func TestArrayLayoutUsesFewerTuples(t *testing.T) {
	src, _ := writeSource(t, 3, 30)
	rows := New(t.TempDir(), WithLayout(LayoutRows))
	defer rows.Close()
	arrays := New(t.TempDir(), WithLayout(LayoutArrays))
	defer arrays.Close()
	if _, err := rows.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := arrays.Load(src); err != nil {
		t.Fatal(err)
	}
	if arrays.table.heap.tuples >= rows.table.heap.tuples {
		t.Errorf("array tuples %d >= row tuples %d",
			arrays.table.heap.tuples, rows.table.heap.tuples)
	}
}

func TestTableRejectsBadSeries(t *testing.T) {
	src, _ := writeSource(t, 2, 5)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	tb := e.table
	bad := &timeseries.Series{ID: -1, Readings: make([]float64, 24)}
	temp := &timeseries.Temperature{Values: make([]float64, 24)}
	if err := tb.insertSeries(bad, temp); err == nil {
		t.Error("negative id: want error")
	}
	mismatch := &timeseries.Series{ID: 50, Readings: make([]float64, 48)}
	if err := tb.insertSeries(mismatch, temp); err == nil {
		t.Error("length mismatch vs temp: want error")
	}
	if _, _, err := tb.readSeries(9999); err == nil {
		t.Error("missing household: want error")
	}
}

func TestDistinctIDs(t *testing.T) {
	src, ds := writeSource(t, 7, 5)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	ids, err := e.table.distinctIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(ds.Series) {
		t.Fatalf("ids = %v", ids)
	}
	for i, s := range ds.Series {
		if ids[i] != s.ID {
			t.Errorf("ids[%d] = %d, want %d", i, ids[i], s.ID)
		}
	}
}

func TestPoolStatsAndLayoutAccessors(t *testing.T) {
	src, _ := writeSource(t, 2, 5)
	e := New(t.TempDir(), WithLayout(LayoutArrays), WithPoolPages(16))
	defer e.Close()
	if e.Layout() != LayoutArrays {
		t.Error("Layout accessor")
	}
	if h, m := e.PoolStats(); h != 0 || m != 0 {
		t.Error("stats before load")
	}
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err != nil {
		t.Fatal(err)
	}
	h, m := e.PoolStats()
	if h == 0 && m == 0 {
		t.Error("no pool activity recorded")
	}
}

func TestOpenReattachesStorage(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 4, 20)
			dir := t.TempDir()
			e1 := New(dir, WithLayout(layout))
			if _, err := e1.Load(src); err != nil {
				t.Fatal(err)
			}
			want, err := e1.Run(core.Spec{Task: core.TaskThreeLine})
			if err != nil {
				t.Fatal(err)
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}
			// A brand-new engine over the same directory reopens the
			// stored pages without reloading. Note the layout is recovered
			// from the meta page, not the constructor option.
			e2 := New(dir)
			if err := e2.Open(); err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if e2.Layout() != layout {
				t.Errorf("recovered layout = %v, want %v", e2.Layout(), layout)
			}
			got, err := e2.Run(core.Spec{Task: core.TaskThreeLine})
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, got, want)
			if len(e2.ids) != len(ds.Series) {
				t.Errorf("recovered %d consumers, want %d", len(e2.ids), len(ds.Series))
			}
		})
	}
}

func TestOpenErrors(t *testing.T) {
	e := New(t.TempDir())
	if err := e.Open(); err == nil {
		t.Error("open without file: want error")
	}
	// A file that is not a rowstore file is rejected by the magic check.
	dir := t.TempDir()
	path := filepath.Join(dir, "table.db")
	if err := os.WriteFile(path, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := New(dir)
	if err := bad.Open(); err == nil {
		t.Error("bad magic: want error")
	}
}

func deltaFor(t *testing.T, ds *timeseries.Dataset, days int) *timeseries.Dataset {
	t.Helper()
	d, err := seed.Generate(seed.Config{Consumers: len(ds.Series), Days: days, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAppendExtendsEverySeries(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 3, 10)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			delta := deltaFor(t, ds, 2)
			if err := e.AppendDelta(delta); err != nil {
				t.Fatal(err)
			}
			// Every series must now hold 12 days and the appended values
			// must round-trip exactly.
			for i, want := range delta.Series {
				s, temp, err := e.table.readSeries(ds.Series[i].ID)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Readings) != 12*timeseries.HoursPerDay {
					t.Fatalf("series %d has %d readings", s.ID, len(s.Readings))
				}
				off := 10 * timeseries.HoursPerDay
				for j, v := range want.Readings {
					if s.Readings[off+j] != v {
						t.Fatalf("series %d appended reading %d: %g vs %g", s.ID, j, s.Readings[off+j], v)
					}
					if temp.Values[off+j] != delta.Temperature.Values[j] {
						t.Fatalf("series %d appended temp %d mismatch", s.ID, j)
					}
				}
			}
			// The append survives a close/reopen cycle (meta page updated).
			dir := e.dir
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			re := New(dir)
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			s, _, err := re.table.readSeries(ds.Series[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Readings) != 12*timeseries.HoursPerDay {
				t.Errorf("after reopen: %d readings", len(s.Readings))
			}
		})
	}
}

func TestAppendValidation(t *testing.T) {
	src, ds := writeSource(t, 3, 5)
	e := New(t.TempDir())
	defer e.Close()
	empty := New(t.TempDir())
	defer empty.Close()
	if err := empty.AppendDelta(&timeseries.Dataset{}); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("append before load: %v", err)
	}
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	// Wrong household count.
	short := deltaFor(t, ds, 1)
	short.Series = short.Series[:2]
	if err := e.AppendDelta(short); err == nil {
		t.Error("short delta: want error")
	}
	// Readings/temperature mismatch.
	bad := deltaFor(t, ds, 1)
	bad.Series[0].Readings = bad.Series[0].Readings[:12]
	if err := e.AppendDelta(bad); err == nil {
		t.Error("ragged delta: want error")
	}
}

// Ablation: buffer pool capacity vs cold-scan performance. A pool too
// small for the working set forces re-reads from disk on every
// extraction (DESIGN.md's called-out buffer pool design choice).
func BenchmarkBufferPoolSize(b *testing.B) {
	ds, err := seed.Generate(seed.Config{Consumers: 12, Days: 90, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(b.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		b.Fatal(err)
	}
	for _, pages := range []int{8, 64, 4096} {
		b.Run(fmt.Sprintf("pages-%d", pages), func(b *testing.B) {
			e := New(b.TempDir(), WithPoolPages(pages))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Release(); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
