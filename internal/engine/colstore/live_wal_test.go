package colstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// sameRows asserts two snapshot maps are bit-identical: same households,
// same lengths, same values.
func sameRows(t *testing.T, got, want map[timeseries.ID][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d households, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("household %d missing after recovery", id)
		}
		if len(g) != len(w) {
			t.Fatalf("household %d: recovered %d hours, want %d", id, len(g), len(w))
		}
		for h := range w {
			if g[h] != w[h] {
				t.Fatalf("household %d hour %d: recovered %v, want %v", id, h, g[h], w[h])
			}
		}
	}
}

// TestWALRecoverAfterCrash: everything appended before a crash replays
// bit-exactly from the log on reopen, with the epoch restarting at zero
// (epochs are per engine instance).
func TestWALRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	ids := []timeseries.ID{3, 7, 12, 21}
	const hours = 30
	for h := 0; h < hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, cur)
	cur.Close()
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	cur2, ep, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	if ep != 0 {
		t.Errorf("post-recovery epoch = %d, want 0 (epochs restart per instance)", ep)
	}
	sameRows(t, drainSnap(t, cur2), want)
	temp, err := cur2.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	if len(temp.Values) != hours {
		t.Fatalf("recovered temperature covers %d hours, want %d", len(temp.Values), hours)
	}
	for h, v := range temp.Values {
		if v != liveTemp(h) {
			t.Fatalf("recovered temperature hour %d: %v, want %v", h, v, liveTemp(h))
		}
	}
	// Recovery is idempotent: a second crash-and-reopen with no new
	// appends replays the same prefix again.
	re.Crash()
	re2 := New(dir, WithWAL(wal.SyncBatch))
	cur3, _, err := re2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur3.Close()
	sameRows(t, drainSnap(t, cur3), want)
}

// TestWALReplayOnOpenExisting: a live tail on top of a loaded base
// survives a crash; OpenExisting reports the recovered tail in its
// stats and serves base + tail bit-exactly.
func TestWALReplayOnOpenExisting(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
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
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, cur)
	cur.Close()
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	st, err := re.OpenExisting()
	if err != nil {
		t.Fatal(err)
	}
	wantReadings := int64(len(ids)) * int64(baseN+24)
	if st.Readings != wantReadings {
		t.Errorf("OpenExisting stats.Readings = %d, want %d (base + recovered tail)", st.Readings, wantReadings)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
}

// TestCheckpointCrashLeavesOldWALSegmentReadable: a crash mid-Checkpoint
// — after the temp segment started streaming but before the rename —
// must leave the previous segment and the write-ahead log untouched, so
// a reopen recovers everything and a later Checkpoint succeeds over the
// abandoned temp file.
func TestCheckpointCrashLeavesOldWALSegmentReadable(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
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
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, cur)
	cur.Close()

	// Simulate the crash point: Checkpoint writes <segment>.tmp and the
	// process dies before the rename, leaving a torn temp file behind.
	torn := e.path + ".tmp"
	if err := os.WriteFile(torn, []byte("torn mid-checkpoint segment write"), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	if _, err := re.OpenExisting(); err != nil {
		t.Fatalf("reopen with abandoned checkpoint temp file: %v", err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, drainSnap(t, cur2), want)
	cur2.Close()

	// A real Checkpoint now replaces both the stale temp file and the
	// old segment; the folded state still matches.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := re.liveHours(); got != 0 {
		t.Errorf("liveHours after checkpoint = %d, want 0", got)
	}
	cur3, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur3.Close()
	sameRows(t, drainSnap(t, cur3), want)
}

// TestWALCheckpointRemainder: with households at unequal hours the
// checkpoint folds only the common prefix and rewrites the log down to
// the remainders; a crash right after still recovers every acked hour.
func TestWALCheckpointRemainder(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	ids := []timeseries.ID{2, 5, 9}
	const common, lead = 48, 7
	for h := 0; h < common; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	for h := common; h < common+lead; h++ {
		if err := e.Append(hourBatch(ids[:1], h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.store == nil || e.store.n != common {
		t.Fatalf("checkpoint cut: store covers %v hours, want %d", e.store, common)
	}
	if got := e.liveHours(); got != lead {
		t.Errorf("liveHours after checkpoint = %d, want %d", got, lead)
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for i, id := range ids {
		wantN := common
		if i == 0 {
			wantN = common + lead
		}
		got := rows[id]
		if len(got) != wantN {
			t.Fatalf("household %d: recovered %d hours, want %d", id, len(got), wantN)
		}
		for h, v := range got {
			if v != liveVal(id, h) {
				t.Fatalf("household %d hour %d: recovered %v, want %v", id, h, v, liveVal(id, h))
			}
		}
	}
	temp, err := cur.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	if len(temp.Values) != common+lead {
		t.Fatalf("recovered temperature covers %d hours, want %d", len(temp.Values), common+lead)
	}
}

// TestWALCheckpointAppendSnapshotChaos races Checkpoint against
// concurrent Appends and Snapshots under -race: epochs must stay
// monotonic across folds and every snapshot must remain a bit-exact
// gap-free prefix, before, during and after each segment swap.
func TestWALCheckpointAppendSnapshotChaos(t *testing.T) {
	e := New(t.TempDir(), WithWAL(wal.SyncBatch))
	var ids []timeseries.ID
	for id := timeseries.ID(1); id <= 12; id++ {
		ids = append(ids, id)
	}
	ckpt := func() error {
		err := e.Checkpoint()
		if err != nil && strings.Contains(err.Error(), "nothing to checkpoint") {
			// The race can win before the first append lands.
			return nil
		}
		return err
	}
	cursortest.RunCheckpointChaos(t, e, ckpt, ids, 0, 72)
}

// TestWALTornShardTailRecovers: chopping bytes off every shard log —
// the torn-write shape a power failure leaves — must never surface a
// decode error; the engine reopens with each household holding a
// bit-exact prefix of what was appended.
func TestWALTornShardTailRecovers(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	ids := []timeseries.ID{1, 2, 3, 4, 5, 6}
	const hours = 20
	for h := 0; h < hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash()

	logs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Fatal("no shard logs on disk")
	}
	for _, p := range logs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 11 {
			if err := os.Truncate(p, fi.Size()-11); err != nil {
				t.Fatal(err)
			}
		}
	}

	re := New(dir, WithWAL(wal.SyncBatch))
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatalf("reopen over torn shard tails: %v", err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for id, got := range rows {
		if len(got) > hours {
			t.Fatalf("household %d: %d hours recovered, only %d appended", id, len(got), hours)
		}
		for h, v := range got {
			if v != liveVal(id, h) {
				t.Fatalf("household %d hour %d: recovered %v, want %v (prefix must be bit-exact)", id, h, v, liveVal(id, h))
			}
		}
	}
}

// TestWALSegmentChangesOnlyAtCheckpoint: Append never folds the tail on
// its own. Over a loaded base, every acked Append grows the log and
// leaves segments.col byte-identical; only Checkpoint rewrites the
// segment, folding every hour and taking the log back to its size
// before the first Append.
func TestWALSegmentChangesOnlyAtCheckpoint(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	baseN := len(ds.Temperature.Values)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	base, err := os.ReadFile(e.path)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := e.ensureLive()
	if err != nil {
		t.Fatal(err)
	}
	const hours = 40
	empty := lt.wlog.SizeBytes()
	logged := empty
	for h := baseN; h < baseN+hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
		size := lt.wlog.SizeBytes()
		if size <= logged {
			t.Fatalf("hour %d: log shrank or stood still at %d bytes (was %d)", h, size, logged)
		}
		logged = size
	}
	if got, err := os.ReadFile(e.path); err != nil || string(got) != string(base) {
		t.Fatalf("segments.col changed before any Checkpoint (err %v)", err)
	}
	if got, want := e.liveHours(), int64(hours*len(ids)); got != want {
		t.Errorf("live tail holds %d readings before Checkpoint, want %d", got, want)
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(e.path); err != nil || string(got) == string(base) {
		t.Fatalf("segments.col unchanged by Checkpoint (err %v)", err)
	}
	if e.store.n != baseN+hours {
		t.Errorf("store covers %d hours after Checkpoint, want %d", e.store.n, baseN+hours)
	}
	if got := e.liveHours(); got != 0 {
		t.Errorf("live tail holds %d readings after Checkpoint, want 0", got)
	}
	if s := lt.wlog.SizeBytes(); s != empty {
		t.Errorf("log holds %d bytes after Checkpoint, want %d as before any Append", s, empty)
	}
}
