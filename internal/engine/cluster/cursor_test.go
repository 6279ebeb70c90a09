package cluster

import (
	"context"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// The cursor contract suites, for every profile over every format, so
// every plan's cursors are held to them and not only each platform's
// default.

func openCursor(e *Engine) func(t *testing.T) core.Cursor {
	return func(t *testing.T) core.Cursor {
		cur, err := e.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
}

func TestCursorConformance(t *testing.T) {
	srcs, _ := makeSources(t, 5, 10)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		cursortest.Run(t, openCursor(e))
	})
}

func TestPartitionConformance(t *testing.T) {
	srcs, _ := makeSources(t, 7, 10)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		cursortest.RunPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})
}

func TestCursorChaos(t *testing.T) {
	srcs, _ := makeSources(t, 20, 10)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		cursortest.RunChaos(t, openCursor(e))
	})
}

func TestPartitionChaos(t *testing.T) {
	srcs, _ := makeSources(t, 20, 10)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		cursortest.RunChaosPartitioned(t, func(t *testing.T) core.PartitionedSource { return e })
	})
}

func TestPipelineChaos(t *testing.T) {
	srcs, ds := makeSources(t, 20, 10)
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		cursortest.RunPipelineChaos(t, ids, func(ctx context.Context, cfg fault.Config, spec core.Spec) (*core.Results, error) {
			return exec.RunContext(ctx, fault.New(e, cfg), spec)
		})
	})
}
