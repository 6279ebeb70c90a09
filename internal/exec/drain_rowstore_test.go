package exec_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
)

// TestColdRowstoreSimilarityDecodesIntoItsMatrix: the row store's
// cursors take their rows, so a cold similarity run at one and four
// workers decodes every consumer into the buffer that becomes the
// kernel's packing, and is the reference run bit for bit. The cursors
// read the table through their rings, so a whole run allocates little
// beyond the one matrix
// and the pool frames of the first consumer, which Temperature reads
// through the pool: a fresh row per consumer would be a second matrix,
// and a pool frame per page several more.
func TestColdRowstoreSimilarityDecodesIntoItsMatrix(t *testing.T) {
	const consumers, days = 32, 365
	gen, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), gen, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	matrix := int64(consumers * days * 24 * 8)
	const perRing = 300 << 10   // a 256 KiB slab and its 32 frames
	const perConsumer = 4 << 10 // series header, result, top-k heaps

	for _, layout := range []rowstore.Layout{rowstore.LayoutRows, rowstore.LayoutArrays} {
		e := rowstore.New(t.TempDir(), rowstore.WithLayout(layout))
		defer e.Close()
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%v/W%d", layout, workers)
			if err := e.Release(); err != nil {
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
				t.Errorf("%s: the drained rows were copied into the packing", name)
			}

			if err := e.Release(); err != nil {
				t.Fatal(err)
			}
			spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: workers}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := e.Run(spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			alloc := int64(after.TotalAlloc - before.TotalAlloc)
			firstConsumer := e.StorageBytes() / consumers
			if limit := matrix*12/10 + int64(workers)*perRing + consumers*perConsumer + firstConsumer; alloc > limit {
				t.Errorf("%s: the run allocated %d bytes, want at most %d (the matrix is %d)", name, alloc, limit, matrix)
			}
			want, err := core.RunReference(ds, spec)
			if err != nil {
				t.Fatal(err)
			}
			got.Phases = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s differs from the reference run", name)
			}
		}
	}
}
