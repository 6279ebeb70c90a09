package exec

import (
	"context"
	"fmt"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// RunSnapshot executes one task over a read-isolated snapshot of an
// append-driven engine, without pausing ingestion: concurrent Appends
// land in epochs the snapshot cursor never observes. The snapshot's
// epoch is returned so callers can tag results with their freshness.
// A snapshot cursor that splits (core.PartitionedSource, as the column
// and row stores' do) is run as partitions, one per worker.
func RunSnapshot(ctx context.Context, app core.Appender, spec core.Spec) (*core.Results, core.Epoch, error) {
	cur, epoch, err := app.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = cur.Close() }()
	var src Source = snapshotSource{cur: cur}
	if ps, ok := cur.(core.PartitionedSource); ok {
		src = splitSnapshot{snapshotSource{cur: cur}, ps}
	}
	res, err := RunContext(ctx, src, spec)
	return res, epoch, err
}

// snapshotSource adapts a snapshot cursor to a Source. The
// temperature column comes from the snapshot itself
// (core.SnapshotTemperature), not the engine, so it is as isolated as
// the readings.
type snapshotSource struct {
	cur core.Cursor
}

func (s snapshotSource) NewCursor() (core.Cursor, error) { return s.cur, nil }

// splitSnapshot is the source of a snapshot cursor that splits: its
// NewCursors is the cursor's. A snapshot cursor that does not split is a
// plain snapshotSource, which the run opens as its one partition.
type splitSnapshot struct {
	snapshotSource
	core.PartitionedSource
}

func (s snapshotSource) Temperature() (*timeseries.Temperature, error) {
	if st, ok := s.cur.(core.SnapshotTemperature); ok {
		return st.SnapshotTemp(), nil
	}
	return nil, fmt.Errorf("exec: snapshot cursor %T exposes no temperature", s.cur)
}
