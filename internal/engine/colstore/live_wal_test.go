package colstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
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

// TestWALTornShardTailRecovers: chopping bytes off the log's tail —
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
	if len(logs) != 1 || filepath.Base(logs[0]) != "wal-000.log" {
		t.Fatalf("log files on disk: %v, want the one wal-000.log", logs)
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
		t.Fatalf("reopen over a torn log tail: %v", err)
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

// logProbeFS wraps the real filesystem under the write-ahead log: it
// counts the writes and fsyncs of the files it opens, and while fail is
// set a write stores half its bytes and fails.
type logProbeFS struct {
	wal.FS
	writes, syncs atomic.Int64
	fail          atomic.Bool
}

func (p *logProbeFS) OpenAppend(path string) (wal.File, error) {
	f, err := p.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &logProbeFile{File: f, p: p}, nil
}

func (p *logProbeFS) Create(path string) (wal.File, error) {
	f, err := p.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &logProbeFile{File: f, p: p}, nil
}

type logProbeFile struct {
	wal.File
	p *logProbeFS
}

func (f *logProbeFile) Write(b []byte) (int, error) {
	f.p.writes.Add(1)
	if f.p.fail.Load() {
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errors.New("injected log write failure")
	}
	return f.File.Write(b)
}

func (f *logProbeFile) Sync() error {
	f.p.syncs.Add(1)
	return f.File.Sync()
}

func householdIDs(n int) []timeseries.ID {
	ids := make([]timeseries.ID, n)
	for i := range ids {
		ids[i] = timeseries.ID(i + 1)
	}
	return ids
}

// TestWALOneWriteOneFsyncPerAppend: under SyncBatch, one acked Append
// is one log write and one fsync, however many households its batch
// spans.
func TestWALOneWriteOneFsyncPerAppend(t *testing.T) {
	for _, n := range []int{1, 40} {
		t.Run(fmt.Sprintf("households=%d", n), func(t *testing.T) {
			fs := &logProbeFS{FS: wal.OSFS}
			e := New(t.TempDir(), WithWAL(wal.SyncBatch), WithWALFS(fs))
			defer e.Release()
			if _, err := e.ensureLive(); err != nil {
				t.Fatal(err)
			}
			ids := householdIDs(n)
			for h := 0; h < 3; h++ {
				w0, s0 := fs.writes.Load(), fs.syncs.Load()
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
				if w, s := fs.writes.Load()-w0, fs.syncs.Load()-s0; w != 1 || s != 1 {
					t.Fatalf("hour %d: one Append over %d households made %d log writes and %d fsyncs, want 1 and 1", h, n, w, s)
				}
			}
		})
	}
}

// snapState is what a snapshot shows: every household's readings, the
// epoch and the temperature column.
type snapState struct {
	rows  map[timeseries.ID][]float64
	epoch core.Epoch
	temp  []float64
}

func takeSnap(t *testing.T, e *Engine) snapState {
	t.Helper()
	cur, ep, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	temp, err := cur.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	return snapState{rows: drainSnap(t, cur), epoch: ep, temp: temp.Values}
}

func sameSnap(t *testing.T, got, want snapState) {
	t.Helper()
	if got.epoch != want.epoch {
		t.Fatalf("epoch %d, want %d", got.epoch, want.epoch)
	}
	if !slices.Equal(got.temp, want.temp) {
		t.Fatalf("temperature covers %d hours, want %d (or values differ)", len(got.temp), len(want.temp))
	}
	sameRows(t, got.rows, want.rows)
}

// TestWALFailedLogWriteAppliesNothing: a batch whose log write fails is
// not applied at all (the snapshot after the failed Append is the one
// before it), a retry applies it exactly once, and a reopen replays
// exactly what the snapshots showed.
func TestWALFailedLogWriteAppliesNothing(t *testing.T) {
	fs := &logProbeFS{FS: wal.OSFS}
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch), WithWALFS(fs))
	ids := householdIDs(40)
	const hours = 30
	for h := 0; h < hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	before := takeSnap(t, e)

	fs.fail.Store(true)
	if err := e.Append(hourBatch(ids, hours)); err == nil {
		t.Fatal("Append acked a batch whose log write failed")
	}
	fs.fail.Store(false)
	sameSnap(t, takeSnap(t, e), before)

	if err := e.Append(hourBatch(ids, hours)); err != nil {
		t.Fatalf("retry: %v", err)
	}
	want := snapState{rows: make(map[timeseries.ID][]float64), epoch: before.epoch + 1, temp: append(slices.Clone(before.temp), liveTemp(hours))}
	for id, row := range before.rows {
		want.rows[id] = append(slices.Clone(row), liveVal(id, hours))
	}
	sameSnap(t, takeSnap(t, e), want)

	e.Crash()
	re := New(dir, WithWAL(wal.SyncBatch), WithWALFS(fs))
	defer re.Release()
	want.epoch = 0
	sameSnap(t, takeSnap(t, re), want)
}
