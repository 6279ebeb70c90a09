package rowstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// sameRows asserts two snapshot maps are bit-identical.
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

// loadWAL loads a fresh WAL-armed engine over a generated base and
// returns it with its directory, household IDs and base length.
func loadWAL(t *testing.T, layout Layout) (e *Engine, dir string, ids []timeseries.ID, baseN int) {
	t.Helper()
	src, ds := writeSource(t, 4, 2)
	dir = t.TempDir()
	e = New(dir, WithLayout(layout), WithWAL(wal.SyncBatch))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	return e, dir, ids, len(ds.Temperature.Values)
}

// TestWALRecoverAfterCrash: a crash drops the buffer pool's dirty
// pages (no-steal never wrote them back), so everything beyond the
// base lives only in the log — and replays bit-exactly on reopen.
func TestWALRecoverAfterCrash(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e, dir, ids, baseN := loadWAL(t, layout)
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
			wantTemp, err := cur.Temperature()
			if err != nil {
				t.Fatal(err)
			}
			cur.Close()
			e.Crash()

			re := New(dir, WithWAL(wal.SyncBatch))
			defer re.Close()
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
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
			if len(temp.Values) != len(wantTemp.Values) {
				t.Fatalf("recovered temperature covers %d hours, want %d", len(temp.Values), len(wantTemp.Values))
			}
			for h, v := range temp.Values {
				if v != wantTemp.Values[h] {
					t.Fatalf("recovered temperature hour %d: %v, want %v", h, v, wantTemp.Values[h])
				}
			}
		})
	}
}

// TestWALCheckpointCrashRecover: a checkpoint folds the live tuples
// into the table file and truncates the log; appends after it land in
// the log again. A crash — with a torn checkpoint temp file abandoned
// next to the table, as a crash mid-rewrite would leave — recovers the
// checkpointed pages from the file and the rest from the log.
func TestWALCheckpointCrashRecover(t *testing.T) {
	e, dir, ids, baseN := loadWAL(t, LayoutArrays)
	for h := baseN; h < baseN+24; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := e.wlog.SizeBytes(); s > 16 {
		t.Errorf("wal holds %d bytes after checkpoint, want near-empty", s)
	}
	for h := baseN + 24; h < baseN+36; h++ {
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
	// Crash mid-checkpoint: the temp file exists, the rename never ran.
	torn := filepath.Join(dir, "table.db.tmp")
	if err := os.WriteFile(torn, []byte("torn mid-checkpoint page image"), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatalf("reopen with abandoned checkpoint temp file: %v", err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
}

// TestWALCleanCloseThenCrashlessReopen: Close checkpoints, so a
// reopened engine sees everything without replay; the log is empty.
func TestWALCleanCloseThenCrashlessReopen(t *testing.T) {
	e, dir, ids, baseN := loadWAL(t, LayoutRows)
	for h := baseN; h < baseN+10; h++ {
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
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal", "wal-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 16 {
		t.Errorf("wal holds %d bytes after clean close, want near-empty", fi.Size())
	}

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
}

// TestWALTornShardTailRecovers: bytes chopped off the shard log — the
// torn-write shape a power failure leaves — must never surface a
// decode error; the reopened engine holds the base plus a bit-exact
// prefix of the appended tail.
func TestWALTornShardTailRecovers(t *testing.T) {
	e, dir, ids, baseN := loadWAL(t, LayoutArrays)
	const extra = 12
	for h := baseN; h < baseN+extra; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash()
	logPath := filepath.Join(dir, "wal", "wal-000.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatalf("reopen over torn log tail: %v", err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for _, id := range ids {
		got := rows[id]
		if len(got) < baseN || len(got) > baseN+extra {
			t.Fatalf("household %d: recovered %d hours, want between %d and %d", id, len(got), baseN, baseN+extra)
		}
		for h := baseN; h < len(got); h++ {
			if got[h] != liveVal(id, h) {
				t.Fatalf("household %d hour %d: recovered %v, want %v (prefix must be bit-exact)", id, h, got[h], liveVal(id, h))
			}
		}
	}
}

// TestWALCheckpointAppendSnapshotChaos races Checkpoint against
// concurrent Appends and Snapshots under -race, for both layouts:
// epochs stay monotonic across folds and every snapshot stays a
// bit-exact gap-free prefix.
func TestWALCheckpointAppendSnapshotChaos(t *testing.T) {
	const base = 48
	ids := make([]timeseries.ID, 0, 10)
	ds := &timeseries.Dataset{Temperature: &timeseries.Temperature{}}
	for h := 0; h < base; h++ {
		ds.Temperature.Values = append(ds.Temperature.Values, cursortest.IsolationTemp(h))
	}
	for id := timeseries.ID(1); id <= 10; id++ {
		ids = append(ids, id)
		s := &timeseries.Series{ID: id}
		for h := 0; h < base; h++ {
			s.Readings = append(s.Readings, cursortest.IsolationValue(id, h))
		}
		ds.Series = append(ds.Series, s)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(layout), WithWAL(wal.SyncBatch))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			cursortest.RunCheckpointChaos(t, e, e.Checkpoint, ids, base, 48)
		})
	}
}

// TestWALTableFileChangesOnlyAtCheckpoint holds the pool to no-steal:
// with the log armed, acked Appends, snapshot and cold reads, a crash,
// the reopen's replay and more Appends after it leave table.db
// byte-identical to the last checkpoint, which is what recovery opens.
// Only Checkpoint rewrites it.
func TestWALTableFileChangesOnlyAtCheckpoint(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e, dir, ids, baseN := loadWAL(t, layout)
			path := filepath.Join(dir, "table.db")
			base, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			unchanged := func(after string) {
				t.Helper()
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(base) {
					t.Fatalf("after %s: table.db changed (%d bytes, was %d)", after, len(got), len(base))
				}
			}
			reads := func(e *Engine) {
				t.Helper()
				cur, _, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				drainSnap(t, cur)
				drainPartitions(t, e, 2)
			}

			for h := baseN; h < baseN+40; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			reads(e)
			unchanged("acked Appends and reads")
			e.Crash()

			re := New(dir, WithWAL(wal.SyncBatch), WithPoolPages(4))
			defer re.Close()
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			reads(re) // the snapshot replays the log
			unchanged("a reopen that replayed the log")
			for h := baseN + 40; h < baseN+50; h++ {
				if err := re.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			unchanged("Appends after the replay")
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) == string(base) {
				t.Fatalf("Checkpoint left table.db as it was (err %v)", err)
			}
		})
	}
}

// TestFailedRenameLeavesNoTemp puts a directory where the table file
// goes, so the checkpoint's rename fails (EISDIR): Checkpoint returns
// the error, removes its temp file and leaves the log untruncated.
func TestFailedRenameLeavesNoTemp(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e, dir, ids, baseN := loadWAL(t, layout)
			defer e.Crash()
			for h := baseN; h < baseN+24; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			logged := e.wlog.SizeBytes()
			// The engine keeps its open handle on the unlinked file.
			path := filepath.Join(dir, TableFileName)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(); err == nil || !strings.Contains(err.Error(), "checkpoint rename") {
				t.Fatalf("Checkpoint over a directory: err = %v, want the rename's error", err)
			}
			left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("temp files left behind: %v", left)
			}
			if got := e.wlog.SizeBytes(); got != logged {
				t.Errorf("log holds %d bytes after the failed checkpoint, want %d", got, logged)
			}
		})
	}
}
