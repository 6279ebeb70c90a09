package colstore

import (
	"context"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func TestCursorChaos(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 20, 10, 64)
	for _, b := range budgets(64) {
		t.Run(b.name, func(t *testing.T) {
			e := pagedEngine(t, dir, b.bytes)
			cursortest.RunChaos(t, func(t *testing.T) core.Cursor {
				cur, err := cursortest.Open(e)
				if err != nil {
					t.Fatal(err)
				}
				return cur
			})
		})
	}
}

func TestPartitionChaos(t *testing.T) {
	dir := t.TempDir()
	buildSegments(t, dir, 20, 10, 64)
	for _, b := range budgets(64) {
		t.Run(b.name, func(t *testing.T) {
			e := pagedEngine(t, dir, b.bytes)
			cursortest.RunChaosPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
		})
	}
}

func TestPipelineChaos(t *testing.T) {
	src, ds := writeSource(t, 20, 10)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	cursortest.RunPipelineChaos(t, ids, func(ctx context.Context, cfg fault.Config, spec core.Spec) (*core.Results, error) {
		return exec.RunContext(ctx, fault.New(e, cfg), spec)
	})
}

// TestSnapshotIsolationChaos races sharded live writers against
// snapshot readers: on an engine born empty, where every household
// starts at hour 0 through the live path, and then with the base half
// of the stream sealed into an on-disk segment read back at every
// budget, so snapshot reads decode base blocks while appends land.
func TestSnapshotIsolationChaos(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		e := New(t.TempDir())
		defer e.Release()
		ids := make([]timeseries.ID, 0, 12)
		for id := timeseries.ID(1); id <= 12; id++ {
			ids = append(ids, id)
		}
		cursortest.RunSnapshotIsolation(t, e, ids, 0, 72)
	})
	const base = 48
	dir, ids := isolationSegment(t, 8, base)
	for _, b := range budgets(base) {
		t.Run(b.name, func(t *testing.T) {
			cursortest.RunSnapshotIsolation(t, pagedEngine(t, dir, b.bytes), ids, base, 48)
		})
	}
}

// isolationSegment writes households 1..n, each holding base hours of
// the isolation suite's values, to a segment file in a fresh directory.
func isolationSegment(t *testing.T, n, base int) (string, []timeseries.ID) {
	t.Helper()
	dir := t.TempDir()
	ids := make([]timeseries.ID, 0, n)
	for id := timeseries.ID(1); id <= timeseries.ID(n); id++ {
		ids = append(ids, id)
	}
	seeder := New(dir)
	for h := 0; h < base; h++ {
		batch := make([]core.Reading, 0, len(ids))
		for _, id := range ids {
			batch = append(batch, core.Reading{
				ID: id, Hour: h,
				Consumption: cursortest.IsolationValue(id, h),
				Temperature: cursortest.IsolationTemp(h),
			})
		}
		if err := seeder.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := seeder.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := seeder.Release(); err != nil {
		t.Fatal(err)
	}
	return dir, ids
}

// TestAppendAtomicity refuses batches that break the append contract,
// whole, over a store born empty and over an on-disk base.
func TestAppendAtomicity(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		e := New(t.TempDir())
		defer e.Release()
		cursortest.RunAppendAtomicity(t, e, []timeseries.ID{1, 2, 3, 5, 8}, 0)
	})
	t.Run("base", func(t *testing.T) {
		const base = 48
		dir, ids := isolationSegment(t, 8, base)
		cursortest.RunAppendAtomicity(t, pagedEngine(t, dir, 0), ids, base)
	})
}
