package filestore

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
	ds := makeDataset(t, 20, 10)

	t.Run("PartitionedFileCursor", func(t *testing.T) {
		src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
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
	})

	t.Run("UnpartitionedIndexCursor", func(t *testing.T) {
		src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		if _, err := e.LoadDirect(src); err != nil {
			t.Fatal(err)
		}
		cursortest.RunChaos(t, func(t *testing.T) core.Cursor {
			cur, err := cursortest.Open(e)
			if err != nil {
				t.Fatal(err)
			}
			return cur
		})
	})
}

func TestPartitionChaos(t *testing.T) {
	ds := makeDataset(t, 20, 10)
	src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	cursortest.RunChaosPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
}

func TestPipelineChaos(t *testing.T) {
	ds := makeDataset(t, 20, 10)
	src, err := meterdata.WritePartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
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
