package exec_test

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/seed"
)

// TestColdColstoreSimilarityDecodesIntoItsMatrix: a cold similarity run
// over the column store, at every cache budget and at one and four
// workers, decodes every consumer into the one buffer that becomes the
// kernel's packing. The drain's dataset packs without a copy, and a whole
// run allocates little beyond that one matrix (blocks the cache admits
// aside): a fresh row per consumer plus a packed copy of them all would
// be about twice the matrix.
func TestColdColstoreSimilarityDecodesIntoItsMatrix(t *testing.T) {
	const consumers, days, blockRows = 64, 365, 1024
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := colstore.NewSegmentWriter(filepath.Join(dir, colstore.SegmentFileName), ds.Temperature.Values, colstore.WithBlockRows(blockRows))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Series {
		// Metered to the watt-hour, as text-sourced readings are, so the
		// store compresses like real data and the cursors' read buffers
		// stay small beside the matrix.
		for j, v := range s.Readings {
			s.Readings[j] = math.Round(v*1000) / 1000
		}
		if err := w.Append(s.ID, s.Readings); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	matrix := int64(consumers * days * 24 * 8)
	const perRow = 4 << 10 // series header, result, top-k heaps, a share of the read buffers

	for _, b := range []struct {
		name  string
		bytes int64
	}{{"none", 0}, {"two-blocks", 2 * 8 * blockRows}, {"whole-store", 1 << 30}} {
		for _, workers := range []int{1, 4} {
			e := colstore.New(dir, colstore.WithMemBudget(b.bytes))
			if _, err := e.OpenExisting(); err != nil {
				t.Fatal(err)
			}
			drained, err := exec.DrainDataset(context.Background(), e, workers, core.FailFast)
			if err != nil {
				t.Fatal(err)
			}
			m, err := drained.Flat()
			if err != nil {
				t.Fatal(err)
			}
			if !m.Shared() {
				t.Fatalf("%s W=%d: the drained rows were copied into the packing", b.name, workers)
			}

			spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: workers}
			_, _, resident := e.PagerStats()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := e.Run(spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			_, _, admitted := e.PagerStats()
			alloc := int64(after.TotalAlloc-before.TotalAlloc) - (admitted - resident)
			if limit := matrix*12/10 + consumers*perRow; alloc > limit {
				t.Fatalf("%s W=%d: the run allocated %d bytes, want at most %d (the matrix is %d)", b.name, workers, alloc, limit, matrix)
			}
			want, err := core.RunReference(ds, spec)
			if err != nil {
				t.Fatal(err)
			}
			cursortest.CompareResults(t, got, want)
			if err := e.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSnapshotColstoreSimilarityDecodesIntoItsMatrix: a similarity run
// over a snapshot of a live column store, a sealed base plus appended
// days and hours, decodes every consumer into its slot of the one
// matrix (the snapshot cursor takes its rows), so the run allocates
// little beyond that matrix: a fresh row per consumer would be a second
// one. It is the reference run bit for bit.
func TestSnapshotColstoreSimilarityDecodesIntoItsMatrix(t *testing.T) {
	const consumers, days, baseDays, tailHours = 64, 365, 358, 6*24 + 12
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Series {
		for j, v := range s.Readings {
			s.Readings[j] = math.Round(v*1000) / 1000
		}
	}
	baseN := baseDays * 24
	dir := t.TempDir()
	w, err := colstore.NewSegmentWriter(filepath.Join(dir, colstore.SegmentFileName), ds.Temperature.Values[:baseN])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Series {
		if err := w.Append(s.ID, s.Readings[:baseN]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := colstore.New(dir)
	defer e.Release()
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	for h := baseN; h < baseN+tailHours; h++ {
		if err := e.Append(datasetBatch(ds, h)); err != nil {
			t.Fatal(err)
		}
	}
	matrix := int64(consumers * (baseN + tailHours) * 8)
	const perRow = 4 << 10 // series header, result, top-k heaps, a share of the read buffers

	for _, workers := range []int{1, 4} {
		spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: workers}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, _, err := exec.RunSnapshot(context.Background(), e, spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc, limit := int64(after.TotalAlloc-before.TotalAlloc), matrix*12/10+consumers*perRow; alloc > limit {
			t.Errorf("W=%d: the snapshot run allocated %d bytes, want at most %d (the matrix is %d)", workers, alloc, limit, matrix)
		}
		want, err := core.RunReference(datasetPrefix(ds, baseN+tailHours), spec)
		if err != nil {
			t.Fatal(err)
		}
		cursortest.CompareResults(t, got, want)
	}
}
