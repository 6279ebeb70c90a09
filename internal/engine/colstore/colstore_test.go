package colstore

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func writeSource(t *testing.T, consumers, days int) (*meterdata.Source, *timeseries.Dataset) {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	return src, ds
}

// writeAndDecode round-trips ds through a segment file on disk, read
// back by draining the engine's cursors (exec.Warm).
func writeAndDecode(t *testing.T, ds *timeseries.Dataset) *timeseries.Dataset {
	t.Helper()
	dir := t.TempDir()
	if err := writeDataset(filepath.Join(dir, SegmentFileName), ds); err != nil {
		t.Fatal(err)
	}
	e := New(dir)
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Release() }()
	got, err := exec.Warm(context.Background(), e, 2)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, ds := writeSource(t, 5, 20)
	got := writeAndDecode(t, ds)
	if len(got.Series) != len(ds.Series) {
		t.Fatalf("series = %d", len(got.Series))
	}
	for i, s := range ds.Series {
		if got.Series[i].ID != s.ID {
			t.Fatalf("series %d id %d vs %d", i, got.Series[i].ID, s.ID)
		}
		for j := range s.Readings {
			if got.Series[i].Readings[j] != s.Readings[j] {
				t.Fatalf("series %d reading %d mismatch", i, j)
			}
		}
	}
	for j := range ds.Temperature.Values {
		if got.Temperature.Values[j] != ds.Temperature.Values[j] {
			t.Fatalf("temperature %d mismatch", j)
		}
	}
}

func TestDecodedColumnsPackZeroCopy(t *testing.T) {
	// The decoder lays all consumer columns in one contiguous buffer, so
	// the similarity engine's FlatMatrix packing must adopt that backing
	// zero-copy instead of re-copying every row.
	_, ds := writeSource(t, 6, 15)
	got := writeAndDecode(t, ds)
	m, err := got.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Shared() {
		t.Fatal("FlatMatrix copied the decoded columns; want zero-copy adoption")
	}
	if &m.Data()[0] != &got.Series[0].Readings[0] {
		t.Error("FlatMatrix data does not alias the decoded buffer")
	}
	// Zero-copy means the matrix sees writes through the series view.
	got.ReleaseFlat()
	got.Series[2].Readings[3] = 1234.5
	m, err = got.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if m.Row(2)[3] != 1234.5 {
		t.Error("FlatMatrix row does not alias series readings")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, ds := writeSource(t, 2, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "segments.col")
	if err := writeDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"short":     func(b []byte) []byte { return b[:10] },
		"truncated": func(b []byte) []byte { return b[:len(b)-8] },
		"bad-magic": func(b []byte) []byte { b2 := append([]byte(nil), b...); b2[0] = 'X'; return b2 },
	} {
		bad := filepath.Join(dir, name+".col")
		if err := os.WriteFile(bad, mutate(img), 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := openStore(bad); err == nil {
			st.close()
			t.Errorf("%s: want error", name)
		}
	}
}

func TestEngineLoadRunRelease(t *testing.T) {
	src, ds := writeSource(t, 4, 30)
	e := New(t.TempDir())
	st, err := e.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Consumers != 4 || st.StorageBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	for _, task := range core.Tasks {
		spec := core.Spec{Task: task, K: 2}
		got, err := e.Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", task, err)
		}
		want, err := core.RunReference(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != want.Count() {
			t.Fatalf("%v: count %d vs %d", task, got.Count(), want.Count())
		}
	}
	// Release, then run cold again: the run reattaches the file.
	if err := e.Release(); err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil || r.Count() != 4 {
		t.Fatalf("cold rerun: %d, %v", r.Count(), err)
	}
}

func TestEngineResultsMatchReferenceExactly(t *testing.T) {
	src, ds := writeSource(t, 3, 40)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(core.Spec{Task: core.TaskThreeLine})
	if err != nil {
		t.Fatal(err)
	}
	// The engine parses the same CSV, so values match the reference to
	// CSV precision.
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunReference(ref, core.Spec{Task: core.TaskThreeLine})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ThreeLines {
		g, w := got.ThreeLines[i], want.ThreeLines[i]
		if g.ID != w.ID || math.Abs(g.HeatingGradient-w.HeatingGradient) > 1e-9 {
			t.Fatalf("3-line %d: %+v vs %+v", i, g, w)
		}
	}
	_ = ds
}

func TestEngineRunWithoutLoad(t *testing.T) {
	e := New(t.TempDir())
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("err = %v, want ErrNotLoaded", err)
	}
}

func TestSegmentFilePersistsAcrossEngines(t *testing.T) {
	src, _ := writeSource(t, 3, 10)
	dir := t.TempDir()
	e1 := New(dir)
	if _, err := e1.Load(src); err != nil {
		t.Fatal(err)
	}
	// A second engine over the same dir can run from the segment file
	// alone (no Load).
	e2 := New(dir)
	r, err := e2.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil || r.Count() != 3 {
		t.Fatalf("second engine: %d, %v", r.Count(), err)
	}
}

func TestCorruptFileFailsRun(t *testing.T) {
	e := New(t.TempDir())
	// Corrupt file on disk surfaces as a decode error at Run.
	os.WriteFile(e.path, []byte("garbage"), 0o644)
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil {
		t.Error("corrupt file: want error")
	}
}

// TestAppendRewritesSegments appends a day to every stored series
// through Append and folds it with Checkpoint: the segment file is
// replaced, not grown, and the day is visible at once through Run and
// after a cold reattach.
func TestAppendRewritesSegments(t *testing.T) {
	src, ds := writeSource(t, 3, 10)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	delta, err := seed.Generate(seed.Config{Consumers: 3, Days: 1, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(e.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(core.BatchOf(delta, len(ds.Temperature.Values))); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(e.path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Error("Checkpoint grew the segment file in place; want a rewrite")
	}
	want := int64(11 * 24)
	for _, reattach := range []bool{false, true} {
		if reattach {
			e.Release()
		}
		res, err := e.Run(core.Spec{Task: core.TaskHistogram})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Histograms {
			if h.Histogram.Total() != want {
				t.Fatalf("reattach %v: consumer %d total = %d, want %d", reattach, h.ID, h.Histogram.Total(), want)
			}
		}
	}
}

// TestFailedRenameLeavesNoTemp puts a directory where the segment file
// goes, so the rename at the end of Load and of Checkpoint fails
// (EISDIR): each call returns the error and removes its temp file.
func TestFailedRenameLeavesNoTemp(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	noTemp := func(t *testing.T, dir string) {
		t.Helper()
		left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("temp files left behind: %v", left)
		}
	}
	t.Run("Load", func(t *testing.T) {
		e := New(t.TempDir())
		if err := os.Mkdir(e.path, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Load(src); err == nil {
			t.Fatal("Load over a directory: want error")
		}
		noTemp(t, e.dir)
	})
	t.Run("Checkpoint", func(t *testing.T) {
		e := New(t.TempDir())
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		defer e.Release()
		delta, err := seed.Generate(seed.Config{Consumers: 3, Days: 1, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Append(core.BatchOf(delta, len(ds.Temperature.Values))); err != nil {
			t.Fatal(err)
		}
		// The attached store keeps its open handle on the unlinked file.
		if err := os.Remove(e.path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(e.path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err == nil {
			t.Fatal("Checkpoint over a directory: want error")
		}
		noTemp(t, e.dir)
	})
}
