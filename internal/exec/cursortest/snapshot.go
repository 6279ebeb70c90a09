package cursortest

import (
	"io"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Snapshot-isolation chaos suite for core.Appender implementations.
// Sharded writers append hour batches concurrently — with deterministic
// duplicate redelivery — while a reader takes snapshots the whole time.
// Every snapshot must be a gap-free, bit-exact prefix of the expected
// stream for each household, replay identically under Reset even after
// later epochs commit, and never shrink relative to an earlier
// snapshot. Engine tests call this under -race; the data races the
// contract must exclude are exactly the ones the race detector sees.

// IsolationValue is the deterministic consumption value writers append
// for household id at the given absolute hour. Engine tests that
// pre-load a base must seed it with the same function. The values are
// dyadic rationals within 6 significant digits (for id ≤ 19 and hour <
// 500) so they survive the meterdata text format bit-exactly when a
// test routes the base through Load.
func IsolationValue(id timeseries.ID, hour int) float64 {
	return float64(id)*500 + float64(hour) + 0.25
}

// IsolationTemp is the deterministic temperature for an absolute hour.
func IsolationTemp(hour int) float64 { return 10 + 0.5*float64(hour) }

// isolationWriters is the concurrent writer count; households map onto
// writers with core.ShardFor, so each household has exactly one writer
// and the per-household ordering contract is the writer's program
// order.
const isolationWriters = 4

// RunSnapshotIsolation drives the appender with isolationWriters
// concurrent sharded writers for extra hours beyond base (the hours
// already present for ids, seeded with IsolationValue/IsolationTemp),
// snapshotting throughout. Run it from a test whose name matches the
// CI chaos pattern so it executes under -race.
func RunSnapshotIsolation(t *testing.T, app core.Appender, ids []timeseries.ID, base, extra int) {
	t.Helper()
	runSnapshotIsolation(t, app, nil, ids, base, extra)
}

// RunCheckpointChaos is RunSnapshotIsolation with a checkpointer
// thrown into the race: ckpt is called back-to-back for the whole run,
// so snapshots and appends land before, during and after base folds.
// The invariants are the same — epochs never go backwards and every
// snapshot is a bit-exact gap-free prefix — which is exactly what a
// checkpoint could break by resetting the epoch or serving a torn
// base/tail pair.
func RunCheckpointChaos(t *testing.T, app core.Appender, ckpt func() error, ids []timeseries.ID, base, extra int) {
	t.Helper()
	runSnapshotIsolation(t, app, ckpt, ids, base, extra)
}

func runSnapshotIsolation(t *testing.T, app core.Appender, ckpt func() error, ids []timeseries.ID, base, extra int) {
	t.Helper()

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, isolationWriters+1)
	for w := 0; w < isolationWriters; w++ {
		var own []timeseries.ID
		for _, id := range ids {
			if core.ShardFor(id, isolationWriters) == w {
				own = append(own, id)
			}
		}
		wg.Add(1)
		go func(own []timeseries.ID) {
			defer wg.Done()
			for h := base; h < base+extra; h++ {
				batch := make([]core.Reading, 0, len(own))
				for _, id := range own {
					batch = append(batch, core.Reading{
						ID: id, Hour: h,
						Consumption: IsolationValue(id, h),
						Temperature: IsolationTemp(h),
					})
				}
				if err := app.Append(batch); err != nil {
					errs <- err
					return
				}
				// Deterministic redelivery: every third batch is
				// offered again and must apply as a no-op.
				if h%3 == 0 {
					if err := app.Append(batch); err != nil {
						errs <- err
						return
					}
				}
			}
		}(own)
	}
	go func() { wg.Wait(); close(done) }()

	ckptDone := make(chan struct{})
	if ckpt != nil {
		go func() {
			defer close(ckptDone)
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := ckpt(); err != nil {
					errs <- err
					return
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	seen := make(map[timeseries.ID]int, len(ids))
	var lastEpoch core.Epoch
	running := true
	for running {
		select {
		case <-done:
			running = false
		default:
		}
		cur, epoch, err := app.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if epoch < lastEpoch {
			t.Fatalf("epoch went backwards: %d after %d", epoch, lastEpoch)
		}
		lastEpoch = epoch
		first := drainIsolation(t, cur, base+extra, seen)
		// Replaying after more epochs commit must reproduce the
		// snapshot bit-for-bit: later writes belong to epochs this
		// cursor never observes.
		if err := cur.Reset(); err != nil {
			t.Fatal(err)
		}
		second := drainIsolation(t, cur, base+extra, nil)
		if len(first) != len(second) {
			t.Fatalf("replay households: %d vs %d", len(second), len(first))
		}
		for id, vals := range first {
			re := second[id]
			if len(re) != len(vals) {
				t.Fatalf("household %d replay length: %d vs %d", id, len(re), len(vals))
			}
			for i := range vals {
				if !stats.ExactEqual(re[i], vals[i]) {
					t.Fatalf("household %d hour %d replay differs", id, i)
				}
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}

	<-ckptDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The final snapshot sees everything.
	cur, _, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cur.Close() }()
	final := drainIsolation(t, cur, base+extra, nil)
	if len(final) != len(ids) {
		t.Fatalf("final households = %d, want %d", len(final), len(ids))
	}
	for id, vals := range final {
		if len(vals) != base+extra {
			t.Fatalf("household %d final length = %d, want %d", id, len(vals), base+extra)
		}
	}
}

// drainIsolation drains one snapshot cursor and checks the invariants:
// ascending household order, per-household bit-exact gap-free prefixes
// of the expected stream no longer than maxLen, a matching temperature
// prefix, and (when seen is non-nil) no household shrinking below a
// previously observed length.
func drainIsolation(t *testing.T, cur core.Snapshot, maxLen int, seen map[timeseries.ID]int) map[timeseries.ID][]float64 {
	t.Helper()
	out := make(map[timeseries.ID][]float64)
	longest := 0
	var prev timeseries.ID
	for {
		s, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.ID <= prev {
			t.Fatalf("cursor order: household %d after %d", s.ID, prev)
		}
		prev = s.ID
		if len(s.Readings) > maxLen {
			t.Fatalf("household %d: %d hours, max %d", s.ID, len(s.Readings), maxLen)
		}
		for i, v := range s.Readings {
			if !stats.ExactEqual(v, IsolationValue(s.ID, i)) {
				t.Fatalf("household %d hour %d: got %v, want %v",
					s.ID, i, v, IsolationValue(s.ID, i))
			}
		}
		if seen != nil {
			if n := seen[s.ID]; len(s.Readings) < n {
				t.Fatalf("household %d shrank: %d after %d", s.ID, len(s.Readings), n)
			}
			seen[s.ID] = len(s.Readings)
		}
		if len(s.Readings) > longest {
			longest = len(s.Readings)
		}
		out[s.ID] = append([]float64(nil), s.Readings...)
	}
	temp, err := cur.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	if len(temp.Values) < longest {
		t.Fatalf("snapshot temperature covers %d hours, series reach %d",
			len(temp.Values), longest)
	}
	for i, v := range temp.Values {
		if !stats.ExactEqual(v, IsolationTemp(i)) {
			t.Fatalf("temperature hour %d: got %v, want %v", i, v, IsolationTemp(i))
		}
	}
	return out
}
