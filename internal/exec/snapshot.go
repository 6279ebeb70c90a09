package exec

import (
	"context"

	"github.com/smartmeter/smartbench/internal/core"
)

// RunSnapshot executes one task over a read-isolated snapshot of an
// append-driven engine, without pausing ingestion: concurrent Appends
// land in epochs the snapshot never observes. The snapshot is the run's
// source (core.Snapshot): its partitions and its temperature column are
// the captured state's. The snapshot's epoch is returned so callers can
// tag results with their freshness.
func RunSnapshot(ctx context.Context, app core.Appender, spec core.Spec) (*core.Results, core.Epoch, error) {
	snap, epoch, err := app.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = snap.Close() }()
	res, err := RunContext(ctx, snap, spec)
	return res, epoch, err
}
