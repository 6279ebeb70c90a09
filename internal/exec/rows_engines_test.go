package exec_test

import (
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
)

// coldRunAlloc runs spec over a store that run opens cold and returns
// the bytes the run allocated, after checking its results against the
// reference run's, want, bit for bit.
func coldRunAlloc(t *testing.T, run func(core.Spec) (*core.Results, error), want *core.Results, spec core.Spec) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := run(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got.Phases = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v W=%d differs from the reference run", spec.Task, spec.Workers)
	}
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestColdStreamingRunsRecycleRows: a cold 3-line or PAR run over the
// column store or the row store decodes each block of series into the
// rows of the block before it, so at one and two workers it allocates
// fewer than 2·16·W + 4 rows beside its results and read buffers, not
// the 256 rows of one per household, and is the reference run bit for
// bit.
func TestColdStreamingRunsRecycleRows(t *testing.T) {
	const consumers, days = 256, 365
	gen, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.Series {
		// Metered to the watt-hour, as text-sourced readings are.
		for j, v := range s.Readings {
			s.Readings[j] = math.Round(v*1000) / 1000
		}
	}
	row := int64(days * 24 * 8)
	const perConsumer = 4 << 10 // series header, result, a share of the read buffers

	dir := t.TempDir()
	w, err := colstore.NewSegmentWriter(filepath.Join(dir, colstore.SegmentFileName), gen.Temperature.Values)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.Series {
		if err := w.Append(s.ID, s.Readings); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), gen, meterdata.FormatSeriesPerLine)
	if err != nil {
		t.Fatal(err)
	}
	text, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	rs := rowstore.New(t.TempDir())
	defer rs.Close()
	if _, err := rs.Load(src); err != nil {
		t.Fatal(err)
	}
	// Beside the rows, a cold row-store run fills a pool frame with each
	// household's leaf as it descends, reads the heap through a ring per
	// cursor, and reads the first household through the pool for the
	// temperature column.
	const perRing = 300 << 10 // a 256 KiB slab and its 32 frames
	firstConsumer := rs.StorageBytes() / consumers

	for _, task := range []core.Task{core.TaskThreeLine, core.TaskPAR} {
		wantCol, err := core.RunReference(gen, core.Spec{Task: task})
		if err != nil {
			t.Fatal(err)
		}
		wantRow, err := core.RunReference(text, core.Spec{Task: task})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			spec := core.Spec{Task: task, Workers: workers}
			limit := int64(2*exec.Block*workers+4)*row + consumers*perConsumer

			cs := colstore.New(dir)
			if _, err := cs.OpenExisting(); err != nil {
				t.Fatal(err)
			}
			if alloc := coldRunAlloc(t, cs.Run, wantCol, spec); alloc > limit {
				t.Errorf("colstore %v W=%d: the run allocated %d bytes (%.1f rows), want at most %d", task, workers, alloc, float64(alloc)/float64(row), limit)
			}
			if err := cs.Release(); err != nil {
				t.Fatal(err)
			}

			if err := rs.Release(); err != nil {
				t.Fatal(err)
			}
			limit += consumers*rowstore.PageSize + int64(workers)*perRing + firstConsumer
			if alloc := coldRunAlloc(t, rs.Run, wantRow, spec); alloc > limit {
				t.Errorf("rowstore %v W=%d: the run allocated %d bytes (%.1f rows), want at most %d", task, workers, alloc, float64(alloc)/float64(row), limit)
			}
		}
	}
}
