package exec

import (
	"context"
	"fmt"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Live ingestion plumbing. An Ingestor is the single entry point for a
// committed reading stream: it appends each batch to the storage
// engine first, then fans the batch out to the registered sinks
// (stream detectors, incremental analytics). Storage commits before
// sinks observe, so a sink can always resolve what it sees against a
// storage snapshot at the same or a later epoch. Everything rides the
// core.Appender ordering contract: per-household in-order and
// gap-free, redelivered hours skipped idempotently — which is what
// makes the retry loop safe: a batch that failed half-way can be
// re-offered in full and applies exactly once.
//
// When the store runs with a write-ahead log (colstore/rowstore
// WithWAL), a nil Append return is a durability ack under the engine's
// fsync policy: wal.SyncAlways and wal.SyncBatch guarantee the batch
// survives a crash before the caller sees nil, wal.SyncOff only that
// it was framed into the OS page cache. Redelivered batches are
// re-logged in full before they re-ack — a retry's ack must never
// promise durability the log cannot replay — and recovery feeds the
// log back through the same idempotent append path, so the
// exactly-once story holds across restarts too.

// ReadingSink consumes committed reading batches. Implementations are
// driven serially by the Ingestor that owns them.
type ReadingSink interface {
	Consume(batch []core.Reading) error
}

// SinkFunc adapts a plain function to ReadingSink.
type SinkFunc func(batch []core.Reading) error

// Consume implements ReadingSink.
func (f SinkFunc) Consume(batch []core.Reading) error { return f(batch) }

// Ingestor commits batches to storage, then fans them out to sinks.
type Ingestor struct {
	// Store receives every batch first. Required.
	Store core.Appender
	// Sinks observe each batch after the store committed it.
	Sinks []ReadingSink
	// Attempts is the per-stage retry budget for transient errors
	// (default ExtractAttempts, matching the extraction pipeline).
	Attempts int
}

// Ingest delivers one batch: store first, then each sink in order,
// each stage retried with the pipeline's backoff schedule. An error
// after the store committed does not roll storage back — the caller
// may re-offer the batch; dedup makes that exactly-once.
func (in *Ingestor) Ingest(ctx context.Context, batch []core.Reading) error {
	if in.Store == nil {
		return fmt.Errorf("exec: ingestor has no store")
	}
	if err := in.deliver(ctx, "store", in.Store.Append, batch); err != nil {
		return err
	}
	for i, s := range in.Sinks {
		if err := in.deliver(ctx, fmt.Sprintf("sink %d", i), s.Consume, batch); err != nil {
			return err
		}
	}
	return nil
}

// deliver offers the batch to one stage with retries. Re-offering the
// full batch on retry is safe because every Appender/sink skips
// already-committed hours.
func (in *Ingestor) deliver(ctx context.Context, stage string, f func([]core.Reading) error, batch []core.Reading) error {
	attempts := in.Attempts
	if attempts <= 0 {
		attempts = ExtractAttempts
	}
	var err error
	for try := 1; try <= attempts; try++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = f(batch); err == nil {
			return nil
		}
		if try < attempts {
			if serr := sleepCtx(ctx, retryBackoff(try)); serr != nil {
				return serr
			}
		}
	}
	return fmt.Errorf("exec: ingest %s failed after %d attempts: %w", stage, attempts, err)
}

// RunSnapshot executes one task over a read-isolated snapshot of an
// append-driven engine, without pausing ingestion: concurrent Appends
// land in epochs the snapshot cursor never observes. The snapshot's
// epoch is returned so callers can tag results with their freshness.
// A snapshot exposes one cursor, so at Spec.Workers > 1 one decode
// goroutine feeds all the workers.
func RunSnapshot(ctx context.Context, app core.Appender, spec core.Spec) (*core.Results, core.Epoch, error) {
	cur, epoch, err := app.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	res, err := RunContext(ctx, snapshotSource{cur: cur}, spec)
	if err != nil {
		_ = cur.Close()
		return nil, epoch, err
	}
	return res, epoch, nil
}

// snapshotSource adapts a snapshot cursor to the pipeline Source. The
// temperature column comes from the snapshot itself
// (core.SnapshotTemperature), not the engine, so it is as isolated as
// the readings.
type snapshotSource struct {
	cur core.Cursor
}

func (s snapshotSource) NewCursor() (core.Cursor, error) { return s.cur, nil }

func (s snapshotSource) Temperature() (*timeseries.Temperature, error) {
	if st, ok := s.cur.(core.SnapshotTemperature); ok {
		return st.SnapshotTemp(), nil
	}
	return nil, fmt.Errorf("exec: snapshot cursor %T exposes no temperature", s.cur)
}
