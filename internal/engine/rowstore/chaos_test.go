package rowstore

import (
	"context"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func TestCursorChaos(t *testing.T) {
	src, _ := writeSource(t, 20, 10)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	cursortest.RunChaos(t, func(t *testing.T) core.Cursor {
		cur, err := cursortest.Open(e)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	})
}

func TestPartitionChaos(t *testing.T) {
	src, _ := writeSource(t, 20, 10)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	cursortest.RunChaosPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
}

func TestPipelineChaos(t *testing.T) {
	src, ds := writeSource(t, 20, 10)
	e := New(t.TempDir())
	defer e.Close()
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
// snapshot readers over a loaded base, for both page layouts. The base
// is seeded with the suite's deterministic values so every snapshot
// can verify the full prefix, base and tail alike.
func TestSnapshotIsolationChaos(t *testing.T) {
	const base = 48
	src, ids := isolationSource(t, 10, base)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			cursortest.RunSnapshotIsolation(t, e, ids, base, 48)
		})
	}
}

// isolationSource writes households 1..n, each holding base hours of
// the isolation suite's values, as a reading-per-line text source.
func isolationSource(t *testing.T, n, base int) (*meterdata.Source, []timeseries.ID) {
	t.Helper()
	ids := make([]timeseries.ID, 0, n)
	ds := &timeseries.Dataset{Temperature: &timeseries.Temperature{}}
	for h := 0; h < base; h++ {
		ds.Temperature.Values = append(ds.Temperature.Values, cursortest.IsolationTemp(h))
	}
	for id := timeseries.ID(1); id <= timeseries.ID(n); id++ {
		ids = append(ids, id)
		s := &timeseries.Series{ID: id}
		for h := 0; h < base; h++ {
			s.Readings = append(s.Readings, cursortest.IsolationValue(id, h))
		}
		ds.Series = append(ds.Series, s)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	return src, ids
}

// TestAppendAtomicity refuses batches that break the append contract,
// whole, in both page layouts; in the array layout a household's run
// used to reach the heap as soon as another household's reading came.
func TestAppendAtomicity(t *testing.T) {
	const base = 48
	src, ids := isolationSource(t, 6, base)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			cursortest.RunAppendAtomicity(t, e, ids, base)
		})
	}
}
