package exec_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/cluster"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// TestWarmSimilarityRunsShareOnePacking: on every engine, the dataset
// exec.Warm drains at four workers serves two similarity runs at four
// workers that agree with the reference, and the second packs nothing:
// the dataset's cached FlatMatrix is the one the first run left, and
// the run allocates less than a quarter of the matrix. The single-server
// engines' partitions are ascending ranges, so there the packing is the
// drain's own buffer; the cluster engines' interleave, and the first
// run packs a copy.
func TestWarmSimilarityRunsShareOnePacking(t *testing.T) {
	ds, err := seed.Generate(seed.Config{Consumers: 12, Days: 365, Seed: 5})
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
	spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: 4}
	want, err := core.RunReference(ref, spec)
	if err != nil {
		t.Fatal(err)
	}
	matrix := uint64(len(ref.Series) * len(ref.Series[0].Readings) * 8)

	sim, err := distsim.New(distsim.Config{
		Nodes: 4, SlotsPerNode: 4,
		TransferLatency: time.Microsecond, BytesPerSecond: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := dfs.New(sim, dfs.WithBlockSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	rowE := rowstore.New(filepath.Join(t.TempDir(), "rowstore"))
	t.Cleanup(func() { _ = rowE.Close() })
	for _, c := range []struct {
		name   string
		eng    core.Engine
		packed bool // the drain's buffer is the packing
	}{
		{"filestore", filestore.New(filestore.WithSplitDir(filepath.Join(t.TempDir(), "split"))), true},
		{"rowstore", rowE, true},
		{"colstore", colstore.New(filepath.Join(t.TempDir(), "colstore")), true},
		{"spark", cluster.NewSpark(fsys), false},
		{"hive", cluster.NewHive(fsys, 0, false), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.eng.Load(src); err != nil {
				t.Fatal(err)
			}
			warm, err := exec.Warm(context.Background(), c.eng, 4)
			if err != nil {
				t.Fatal(err)
			}
			var first *timeseries.FlatMatrix
			for run := 0; run < 2; run++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				got, err := exec.Run(exec.NewDatasetSource(warm), spec)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				cursortest.CompareResults(t, got, want)
				m, err := warm.Flat()
				if err != nil {
					t.Fatal(err)
				}
				if shared := m.Shared() && &m.Data()[0] == &warm.Series[0].Readings[0]; shared != c.packed {
					t.Fatalf("the packing is the drained buffer: %v, want %v", shared, c.packed)
				}
				if run == 0 {
					first = m
					continue
				}
				if m != first {
					t.Fatal("the second run packed the warm dataset again")
				}
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > matrix/4 {
					t.Fatalf("the second run allocated %d bytes against a %d-byte matrix: it packed the rows again", alloc, matrix)
				}
			}
		})
	}
}
