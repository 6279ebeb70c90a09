package exec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/incr"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// datasetBatch returns the readings for one absolute hour of ds.
func datasetBatch(ds *timeseries.Dataset, hour int) []core.Reading {
	batch := make([]core.Reading, 0, len(ds.Series))
	for _, s := range ds.Series {
		batch = append(batch, core.Reading{
			ID:          s.ID,
			Hour:        hour,
			Consumption: s.Readings[hour],
			Temperature: ds.Temperature.Values[hour],
		})
	}
	return batch
}

// datasetPrefix copies the first n hours of ds into a fresh dataset.
func datasetPrefix(ds *timeseries.Dataset, n int) *timeseries.Dataset {
	out := &timeseries.Dataset{
		Temperature: &timeseries.Temperature{Values: append([]float64(nil), ds.Temperature.Values[:n]...)},
	}
	for _, s := range ds.Series {
		out.Series = append(out.Series, &timeseries.Series{
			ID:       s.ID,
			Readings: append([]float64(nil), s.Readings[:n]...),
		})
	}
	return out
}

// flakyStore wraps an Appender with a fault-injected Append.
type flakyStore struct {
	core.Appender
	fl *flaky
}

func (s flakyStore) Append(batch []core.Reading) error { return s.fl.offer(batch) }

// flaky fails deterministically on every failEvery-th call, otherwise
// delegates. It models a transient store/sink fault the Ingestor must
// absorb by re-offering the full batch.
type flaky struct {
	calls     int
	failEvery int
	f         func([]core.Reading) error
}

// offer applies the batch first and fails afterwards — the nastier
// partial-failure shape: the data landed but the caller saw an error,
// so the retry redelivers an already-applied batch.
func (fl *flaky) offer(batch []core.Reading) error {
	fl.calls++
	err := fl.f(batch)
	if err == nil && fl.failEvery > 0 && fl.calls%fl.failEvery == 0 {
		return fmt.Errorf("transient fault on call %d", fl.calls)
	}
	return err
}

func TestIngestorCommitsThenFansOut(t *testing.T) {
	ds := makeDataset(t, 4, 14)
	hours := len(ds.Temperature.Values)

	eng := colstore.New(t.TempDir())
	defer eng.Release()
	an := incr.New(incr.Config{K: 3, WindowDays: 10})
	ing := &exec.Ingestor{Store: eng, Sinks: []exec.ReadingSink{an}}

	ctx := context.Background()
	for h := 0; h < hours; h++ {
		if err := ing.Ingest(ctx, datasetBatch(ds, h)); err != nil {
			t.Fatalf("hour %d: %v", h, err)
		}
	}

	// The sink observed exactly the committed stream.
	if got := len(an.IDs()); got != len(ds.Series) {
		t.Fatalf("sink households = %d, want %d", got, len(ds.Series))
	}
	if st := an.Stats(); st.Readings != int64(hours*len(ds.Series)) {
		t.Fatalf("sink readings = %d, want %d", st.Readings, hours*len(ds.Series))
	}

	// The store committed every batch: one epoch per hour, and the
	// snapshot histogram matches the reference over the full dataset.
	spec := core.Spec{Task: core.TaskHistogram, Workers: 2}
	got, epoch, err := exec.RunSnapshot(ctx, eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != core.Epoch(hours) {
		t.Fatalf("epoch = %d, want %d", epoch, hours)
	}
	want, err := core.RunReference(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	cursortest.CompareResults(t, got, want)
}

func TestIngestorRetriesTransientFaults(t *testing.T) {
	ds := makeDataset(t, 3, 4)
	hours := len(ds.Temperature.Values)

	eng := colstore.New(t.TempDir())
	defer eng.Release()
	an := incr.New(incr.Config{K: 2, WindowDays: 10})

	// Both the store and the sink fail every 5th offer. Re-offered
	// batches hit the idempotent dedup path, so despite the retries
	// every reading applies exactly once.
	fstore := &flaky{failEvery: 5, f: eng.Append}
	fsink := &flaky{failEvery: 7, f: an.Consume}
	ing := &exec.Ingestor{
		Store: flakyStore{Appender: eng, fl: fstore},
		Sinks: []exec.ReadingSink{exec.SinkFunc(fsink.offer)},
	}

	ctx := context.Background()
	for h := 0; h < hours; h++ {
		if err := ing.Ingest(ctx, datasetBatch(ds, h)); err != nil {
			t.Fatalf("hour %d: %v", h, err)
		}
	}
	if fstore.calls <= hours || fsink.calls <= hours {
		t.Fatalf("faults never fired: store %d, sink %d calls over %d hours",
			fstore.calls, fsink.calls, hours)
	}
	// Exactly-once at the sink: total readings counts only fresh hours,
	// and the duplicate counter shows redelivery happened.
	st := an.Stats()
	if st.Readings != int64(hours*len(ds.Series)) {
		t.Fatalf("sink readings = %d, want %d", st.Readings, hours*len(ds.Series))
	}
	if st.Duplicates == 0 {
		t.Fatal("expected redelivered duplicates at the sink")
	}
	// Exactly-once at the store: the snapshot matches the reference.
	spec := core.Spec{Task: core.TaskHistogram}
	got, _, err := exec.RunSnapshot(ctx, eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunReference(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	cursortest.CompareResults(t, got, want)
}

func TestIngestorGivesUpAfterAttempts(t *testing.T) {
	eng := colstore.New(t.TempDir())
	defer eng.Release()
	fstore := &flaky{failEvery: 1, f: eng.Append} // always fails
	ing := &exec.Ingestor{Store: flakyStore{Appender: eng, fl: fstore}, Attempts: 3}
	err := ing.Ingest(context.Background(), datasetBatch(makeDataset(t, 2, 1), 0))
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
	if fstore.calls != 3 {
		t.Fatalf("store calls = %d, want 3", fstore.calls)
	}
}

// TestRunSnapshotLiveEngines runs every task over snapshots of both
// append-driven engines mid-ingestion and checks the results are
// bit-identical to the reference over the same prefix — i.e. a
// snapshot is exactly "the dataset as of its epoch", no matter how
// many appends land while the query runs, at one worker and split
// across two and four, and read as one cursor when it does not split.
func TestRunSnapshotLiveEngines(t *testing.T) {
	ds := makeDataset(t, 4, 14)
	hours := len(ds.Temperature.Values)
	baseN := hours / 2 // day-aligned: 14 days halves to 7

	// The rowstore starts from a loaded text-format base; text
	// round-tripping perturbs the last few ULPs, so its reference is
	// the round-tripped base spliced with the exact live tail.
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), datasetPrefix(ds, baseN), meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	baseDS, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	rowRef := datasetPrefix(baseDS, baseN)
	rowRef.Temperature.Values = append(rowRef.Temperature.Values, ds.Temperature.Values[baseN:]...)
	for i, s := range rowRef.Series {
		if s.ID != ds.Series[i].ID {
			t.Fatalf("series order: %d vs %d", s.ID, ds.Series[i].ID)
		}
		s.Readings = append(s.Readings, ds.Series[i].Readings[baseN:]...)
	}

	engines := []struct {
		name string
		mk   func(t *testing.T) liveEngine
		base int                 // hours already present before live appends
		ref  *timeseries.Dataset // what the engine should hold at hour n
	}{
		{"colstore", func(t *testing.T) liveEngine {
			return colstore.New(t.TempDir())
		}, 0, ds},
		{"rowstore", func(t *testing.T) liveEngine {
			e := rowstore.New(t.TempDir())
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			return e
		}, baseN, rowRef},
		{"colstore_unsplit", func(t *testing.T) liveEngine {
			return unsplitSnapshots{colstore.New(t.TempDir())}
		}, 0, ds},
	}

	for _, workers := range []int{1, 2, 4} {
		for _, tc := range engines {
			t.Run(fmt.Sprintf("%s_w%d", tc.name, workers), func(t *testing.T) {
				eng := tc.mk(t)
				defer eng.Release()
				ctx := context.Background()
				n := baseN // hours visible so far
				for h := tc.base; h < n; h++ {
					if err := eng.Append(datasetBatch(tc.ref, h)); err != nil {
						t.Fatal(err)
					}
				}
				for _, task := range core.Tasks {
					spec := core.Spec{Task: task, K: 3, Workers: workers}
					got, epoch, err := exec.RunSnapshot(ctx, eng, spec)
					if err != nil {
						t.Fatalf("%v: %v", task, err)
					}
					if epoch != core.Epoch(n-tc.base) {
						t.Fatalf("%v: epoch = %d, want %d", task, epoch, n-tc.base)
					}
					want, err := core.RunReference(datasetPrefix(tc.ref, n), spec)
					if err != nil {
						t.Fatal(err)
					}
					cursortest.CompareResults(t, got, want)

					// Appends racing the next snapshot move the epoch but
					// never leak into an already-taken one. Full days keep
					// the PAR task's day-alignment requirement intact.
					for h := n; h < n+timeseries.HoursPerDay; h++ {
						if err := eng.Append(datasetBatch(tc.ref, h)); err != nil {
							t.Fatal(err)
						}
					}
					got2, epoch2, err := exec.RunSnapshot(ctx, eng, spec)
					if err != nil {
						t.Fatal(err)
					}
					if epoch2 <= epoch {
						t.Fatalf("%v: epoch did not advance: %d -> %d", task, epoch, epoch2)
					}
					want2, err := core.RunReference(datasetPrefix(tc.ref, n+timeseries.HoursPerDay), spec)
					if err != nil {
						t.Fatal(err)
					}
					cursortest.CompareResults(t, got2, want2)
					n += timeseries.HoursPerDay
				}
			})
		}
	}
}

type liveEngine interface {
	core.Appender
	core.Engine
}

// unsplitSnapshots hides the split of an engine's snapshot cursors, as
// a snapshot that cannot split would have none: a run over it at any
// worker count reads the one cursor.
type unsplitSnapshots struct{ liveEngine }

func (e unsplitSnapshots) Snapshot() (core.Cursor, core.Epoch, error) {
	cur, epoch, err := e.liveEngine.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return struct {
		core.Cursor
		core.SnapshotTemperature
	}{cur, cur.(core.SnapshotTemperature)}, epoch, nil
}

// makeDataset mirrors the exec package's internal test helper; external
// test packages cannot share it.
func makeDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
