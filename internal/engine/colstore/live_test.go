package colstore

import (
	"io"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// liveVal and liveTemp generate deterministic readings so snapshot
// output can be compared bit-identically to what was appended.
func liveVal(id timeseries.ID, hour int) float64 {
	return float64(id)*1000 + float64(hour) + 0.25
}

func liveTemp(hour int) float64 { return 10 + 0.5*float64(hour) }

// hourBatch is one reading per household for a single hour.
func hourBatch(ids []timeseries.ID, hour int) []core.Reading {
	batch := make([]core.Reading, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, core.Reading{
			ID: id, Hour: hour,
			Consumption: liveVal(id, hour),
			Temperature: liveTemp(hour),
		})
	}
	return batch
}

// drainSnap drains a snapshot cursor into a map keyed by household.
func drainSnap(t *testing.T, cur core.Cursor) map[timeseries.ID][]float64 {
	t.Helper()
	out := make(map[timeseries.ID][]float64)
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
			t.Fatalf("cursor order: %d after %d", s.ID, prev)
		}
		prev = s.ID
		out[s.ID] = s.Readings
	}
	return out
}

func TestLiveAppendSnapshotFromEmpty(t *testing.T) {
	e := New(t.TempDir())
	ids := []timeseries.ID{7, 3, 12} // unsorted on purpose
	const hours = 48
	for h := 0; h < hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	cur, ep, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if ep != hours {
		t.Errorf("epoch = %d, want %d", ep, hours)
	}
	rows := drainSnap(t, cur)
	if len(rows) != len(ids) {
		t.Fatalf("snapshot has %d households, want %d", len(rows), len(ids))
	}
	for _, id := range ids {
		got := rows[id]
		if len(got) != hours {
			t.Fatalf("household %d: %d hours, want %d", id, len(got), hours)
		}
		for h, v := range got {
			if v != liveVal(id, h) {
				t.Fatalf("household %d hour %d: %v, want %v", id, h, v, liveVal(id, h))
			}
		}
	}
	temp := cur.(core.SnapshotTemperature).SnapshotTemp()
	if len(temp.Values) != hours {
		t.Fatalf("temperature covers %d hours, want %d", len(temp.Values), hours)
	}
	for h, v := range temp.Values {
		if v != liveTemp(h) {
			t.Fatalf("temperature hour %d: %v, want %v", h, v, liveTemp(h))
		}
	}
}

func TestLiveSnapshotIsolation(t *testing.T) {
	e := New(t.TempDir())
	ids := []timeseries.ID{1, 2}
	for h := 0; h < 24; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	cur, ep, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// Appends after the snapshot must stay invisible to it, across a
	// Reset replay too.
	for h := 24; h < 48; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for id, row := range drainSnap(t, cur) {
			if len(row) != 24 {
				t.Fatalf("pass %d: household %d grew to %d hours inside an epoch-%d snapshot", pass, id, len(row), ep)
			}
		}
		if err := cur.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cur2, ep2, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	if ep2 != ep+24 {
		t.Errorf("second epoch = %d, want %d", ep2, ep+24)
	}
	for id, row := range drainSnap(t, cur2) {
		if len(row) != 48 {
			t.Fatalf("household %d: fresh snapshot has %d hours, want 48", id, len(row))
		}
	}
}

func TestLiveDuplicateAndGap(t *testing.T) {
	e := New(t.TempDir())
	ids := []timeseries.ID{4, 5}
	var day []core.Reading
	for h := 0; h < 24; h++ {
		day = append(day, hourBatch(ids, h)...)
	}
	if err := e.Append(day); err != nil {
		t.Fatal(err)
	}
	if got := e.liveHours(); got != 48 {
		t.Fatalf("liveHours = %d, want 48", got)
	}
	// Redelivering the whole batch is an idempotent no-op.
	if err := e.Append(day); err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	if got := e.liveHours(); got != 48 {
		t.Fatalf("liveHours after redelivery = %d, want 48", got)
	}
	// Skipping an hour is a gap.
	gap := []core.Reading{{ID: 4, Hour: 25, Consumption: 1, Temperature: liveTemp(24)}}
	if err := e.Append(gap); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap append: err = %v", err)
	}
	if err := e.Append([]core.Reading{{ID: 4, Hour: -1}}); err == nil {
		t.Error("negative hour: want error")
	}
	if err := e.Append([]core.Reading{{ID: 0, Hour: 0}}); err == nil {
		t.Error("zero household id: want error")
	}
}

func TestLiveAppendOnBaseAndCheckpoint(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	baseN := len(ds.Temperature.Values)
	cur0, ep0, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ep0 != 0 {
		t.Errorf("pre-append epoch = %d", ep0)
	}
	base := drainSnap(t, cur0)
	cur0.Close()

	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	for h := baseN; h < baseN+24; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	// The bulk path must refuse to silently drop the tail.
	if err := e.AppendDelta(&timeseries.Dataset{}); err == nil || !strings.Contains(err.Error(), "live tail") {
		t.Errorf("AppendDelta with live tail: err = %v", err)
	}
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rows := drainSnap(t, cur)
	for _, id := range ids {
		got := rows[id]
		if len(got) != baseN+24 {
			t.Fatalf("household %d: %d hours, want %d", id, len(got), baseN+24)
		}
		for h := 0; h < baseN; h++ {
			if got[h] != base[id][h] {
				t.Fatalf("household %d hour %d: base reading changed: %v vs %v", id, h, got[h], base[id][h])
			}
		}
		for h := baseN; h < baseN+24; h++ {
			if got[h] != liveVal(id, h) {
				t.Fatalf("household %d hour %d: tail reading %v, want %v", id, h, got[h], liveVal(id, h))
			}
		}
	}
	cur.Close()

	// Checkpoint folds base + tail into a fresh segment.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.liveHours(); got != 0 {
		t.Errorf("liveHours after checkpoint = %d", got)
	}
	cur2, ep2, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	// Epochs keep counting across a checkpoint (monotonic within one
	// engine instance); only a reopen restarts them at zero.
	if ep2 != 24 {
		t.Errorf("post-checkpoint epoch = %d, want 24 (monotonic across Checkpoint)", ep2)
	}
	for id, row := range drainSnap(t, cur2) {
		if len(row) != baseN+24 {
			t.Fatalf("household %d: checkpointed segment has %d hours, want %d", id, len(row), baseN+24)
		}
		for h := baseN; h < baseN+24; h++ {
			if row[h] != liveVal(id, h) {
				t.Fatalf("household %d hour %d lost in checkpoint", id, h)
			}
		}
	}
	temp, err := e.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	if len(temp.Values) != baseN+24 {
		t.Errorf("checkpointed temperature covers %d hours, want %d", len(temp.Values), baseN+24)
	}
}

func TestLiveSnapshotUnderMemBudget(t *testing.T) {
	src, ds := writeSource(t, 3, 4)
	dir := t.TempDir()
	big := New(dir)
	if _, err := big.Load(src); err != nil {
		t.Fatal(err)
	}
	// Reopen the written segment under a tight budget so some base
	// blocks come from the cache, then append a live tail on top.
	e := New(dir, WithMemBudget(1<<12))
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	baseN := len(ds.Temperature.Values)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	for h := baseN; h < baseN+2; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for id, row := range drainSnap(t, cur) {
		if len(row) != baseN+2 {
			t.Fatalf("household %d: %d hours, want %d", id, len(row), baseN+2)
		}
		if row[baseN+1] != liveVal(id, baseN+1) {
			t.Fatalf("household %d: paged snapshot tail mismatch", id)
		}
	}
}

// TestSnapshotAfterCheckpointUnderMemBudget: a checkpoint swaps the
// block cache out with the store it cached, so a snapshot taken after
// it reads the new base, and one taken before it keeps reading the old
// base through the cache that belongs to it.
func TestSnapshotAfterCheckpointUnderMemBudget(t *testing.T) {
	src, ds := writeSource(t, 3, 4)
	dir := t.TempDir()
	if _, err := New(dir).Load(src); err != nil {
		t.Fatal(err)
	}
	e := New(dir, WithMemBudget(1<<20)) // room for every block: all of them are cached
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	baseN := len(ds.Temperature.Values)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	for h := baseN; h < baseN+24; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	before, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, before) // fills the old store's cache
	if err := before.Reset(); err != nil {
		t.Fatal(err)
	}
	oldPager := e.pager
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.pager == oldPager || e.pager.st != e.store {
		t.Fatal("checkpoint kept the old store's block cache")
	}
	after, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	for name, rows := range map[string]map[timeseries.ID][]float64{"after": drainSnap(t, after), "before, replayed": drainSnap(t, before)} {
		for _, id := range ids {
			got := rows[id]
			if len(got) != baseN+24 {
				t.Fatalf("snapshot %s the checkpoint: household %d has %d hours, want %d", name, id, len(got), baseN+24)
			}
			for h := range got {
				if got[h] != want[id][h] {
					t.Fatalf("snapshot %s the checkpoint: household %d hour %d is %v, want %v", name, id, h, got[h], want[id][h])
				}
			}
		}
	}
	before.Close()
}

// TestPagedSnapshotCursorConformance runs the cursor suite, which
// includes that a yielded row is never written again, over snapshot
// cursors whose base columns come through the block cache.
func TestPagedSnapshotCursorConformance(t *testing.T) {
	src, _ := writeSource(t, 4, 4)
	dir := t.TempDir()
	if _, err := New(dir).Load(src); err != nil {
		t.Fatal(err)
	}
	e := New(dir, WithMemBudget(1<<12))
	if _, err := e.OpenExisting(); err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	cursortest.Run(t, func(t *testing.T) core.Cursor {
		cur, _, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return cur
	})
}
