package core

import (
	"fmt"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Live ingestion contract: instead of loading a finished dataset and
// then running tasks ("load once, then run"), an engine implementing
// Appender accepts batches of readings forever and serves read-isolated
// snapshots at any time ("append forever, query any time"). A live
// query is a task run over a snapshot (exec.RunSnapshot), so storage
// and analytics observe one ordered sequence of writes. It is the one
// append contract: a bulk update is an Append (BatchOf) and a Checkpoint.
//
// Ordering contract. Within one household, readings must arrive in
// hour order with no gaps: the first reading for a household carries
// the hour right after its stored prefix (0 for a new household), and
// each subsequent reading the next hour. Re-delivering an hour the
// engine has already committed is a no-op — batches are idempotent, so
// a caller that retries a failed batch cannot double-apply the part
// that did land. Re-delivering with a gap (an hour beyond the
// household's next expected hour) is an error.
//
// Temperature contract. Reading.Temperature must equal the outdoor
// temperature for Reading.Hour: households share one temperature
// column, and the engine extends it from whichever household reaches a
// new hour first.

// Reading is one live meter measurement: household ID, the hour index
// it extends the household's series at, the consumption value, and the
// outdoor temperature for that hour. It is the one reading type shared
// by storage appends and the stream detectors (stream.Event is an
// alias).
type Reading struct {
	ID          timeseries.ID
	Hour        int
	Consumption float64
	Temperature float64
}

// Epoch identifies a snapshot's position in an engine's append
// sequence: the number of batches committed before the snapshot was
// taken. Epochs are monotonic within one engine instance (they restart
// at the stored state's epoch 0 after a reopen) and exist so tests and
// callers can prove isolation: a cursor obtained at epoch E never
// observes writes from any batch committed after E.
type Epoch uint64

// Appender is the live-ingestion contract. Append and Snapshot are
// safe for concurrent use with each other and with themselves —
// engines serve multiple sharded writers while snapshots are read —
// which is deliberately stronger than the base Engine contract.
type Appender interface {
	// Append commits one batch of readings atomically with respect to
	// Snapshot: a snapshot observes either none or all of a batch.
	// Batches are idempotent under the ordering contract above. A
	// batch that breaks the ordering or temperature contract is
	// refused whole (CheckBatch): nothing of it is applied, and no
	// snapshot sees it. An I/O error in the middle of an apply may
	// leave a prefix of the batch in place, visible to later
	// snapshots, but the batch is not committed (the epoch does not
	// advance) and a successful retry of it completes it exactly once.
	Append(batch []Reading) error
	// Snapshot returns a read-isolated view of everything committed so
	// far (the stored base plus all appended batches) and its epoch.
	Snapshot() (Snapshot, Epoch, error)
}

// Snapshot is a read-isolated view of a live engine: a Cursor over the
// captured households, and the source exec.RunSnapshot runs a task over.
// Its NewCursors split the captured state, and Temperature is the column
// as captured, aligned with the captured series lengths even as later
// appends extend it.
type Snapshot interface {
	Cursor
	PartitionedSource
	Temperature() (*timeseries.Temperature, error)
}

// BatchOf is delta as one batch: its households in delta's order, each
// one's readings in hour order from hour first, with delta's temperature.
func BatchOf(delta *timeseries.Dataset, first int) (batch []Reading) {
	for _, s := range delta.Series {
		for i, v := range s.Readings {
			batch = append(batch, Reading{ID: s.ID, Hour: first + i, Consumption: v, Temperature: delta.Temperature.Values[i]})
		}
	}
	return batch
}

// ShardFor maps a household to one of n writer shards: callers that
// split households among concurrent writers (the stream processor's
// per-worker fan-out, the snapshot-isolation suite) share this one
// partitioning function, so every household has exactly one writer.
// The engines themselves do not shard; each orders its writers on one
// lock.
func ShardFor(id timeseries.ID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint64(id) % uint64(n))
}

// CheckBatch checks a whole batch against the ordering and temperature
// contracts before an engine applies any of it, so a refused batch
// leaves nothing behind. committed reports how many hours a household
// holds (0 for one the engine does not know) and temp how many hours the
// shared temperature column covers; until the batch is applied, the
// caller keeps the batch's households still and lets the column only
// grow. Readings are walked in batch order, as an
// engine applies them: a household's next hour moves past each fresh
// reading, redelivered hours are skipped, and the temperature column
// grows by each reading at the hour just past it. A reading beyond the
// column is a temperature gap, one beyond its household's next hour a
// household gap. The first reading that breaks a contract is the error.
func CheckBatch(batch []Reading, committed func(timeseries.ID) int, temp int) error {
	next := make(map[timeseries.ID]int, len(batch))
	for i := range batch {
		r := &batch[i]
		if r.ID <= 0 {
			return fmt.Errorf("household id must be positive, got %d", r.ID)
		}
		if r.Hour < 0 {
			return fmt.Errorf("negative hour %d for household %d", r.Hour, r.ID)
		}
		if r.Hour > temp {
			return fmt.Errorf("temperature gap: reading at hour %d, column covers %d", r.Hour, temp)
		}
		n, ok := next[r.ID]
		if !ok {
			n = committed(r.ID)
		}
		if r.Hour < n {
			continue // redelivered: already committed
		}
		if r.Hour > n {
			return fmt.Errorf("household %d: gap at hour %d, expected %d", r.ID, r.Hour, n)
		}
		next[r.ID] = n + 1
		if r.Hour == temp {
			temp++
		}
	}
	return nil
}
