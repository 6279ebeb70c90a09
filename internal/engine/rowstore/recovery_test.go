package rowstore

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// TestRecoverySweep runs the crash-injection conformance suite against
// the row store: every trial bulk-loads a base day, then a
// deterministic append script (with a mid-script copy-on-write
// checkpoint) is killed at an injected disk operation. The reopened
// engine must recover the checkpointed table plus every acked log
// batch, bit-exact, with analytics matching the no-crash reference.
func TestRecoverySweep(t *testing.T) {
	const base = 24
	ids := []timeseries.ID{1, 2, 3, 4, 5, 6}
	ds := &timeseries.Dataset{Temperature: &timeseries.Temperature{}}
	for h := 0; h < base; h++ {
		ds.Temperature.Values = append(ds.Temperature.Values, cursortest.IsolationTemp(h))
	}
	for _, id := range ids {
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
			h := cursortest.RecoveryHarness{
				Open: func(t *testing.T, dir string, disk *fault.Disk) cursortest.RecoveryEngine {
					e := New(dir, WithLayout(layout), WithWAL(wal.SyncBatch), WithWALFS(disk))
					// Fresh trial dirs have no table yet; Seed installs
					// it. After a crash the checkpointed table must be
					// opened before the log replays onto it.
					if _, err := os.Stat(filepath.Join(dir, "table.db")); err == nil {
						if err := e.Open(); err != nil {
							t.Fatalf("reopen after crash: %v", err)
						}
					}
					return e
				},
				Seed: func(t *testing.T, eng cursortest.RecoveryEngine) {
					if _, err := eng.(*Engine).Load(src); err != nil {
						t.Fatal(err)
					}
				},
				Checkpoint: func(eng cursortest.RecoveryEngine) error {
					return eng.(*Engine).Checkpoint()
				},
				Close: func(eng cursortest.RecoveryEngine) {
					if err := eng.(*Engine).Close(); err != nil {
						t.Errorf("close: %v", err)
					}
				},
				Run:     exec.RunSnapshot,
				Durable: true,
				Base:    base,
				Hours:   60,
			}
			cursortest.RunRecovery(t, h, ids)
		})
	}
}

// TestRecoveryFirstTouchDescends pins what the first touch after a
// reopen costs. ensureLive takes each household's committed length from
// its last index entry, found with one descent (btree.last), so
// committedLen fetches at most 2 × height pages per household: the
// descent, a left step a valid tree never needs, and in the array layout
// the last chunk. That count must not grow from 90-day to 360-day
// households. A scan of the household's index range fetched every leaf
// of it, about 28 for a 360-day household in the row layout. The store
// is WAL-armed and crashed with a live hour in the log, which the
// Snapshot after the counts replays.
func TestRecoveryFirstTouchDescends(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			worst := map[int]int64{}
			heights := map[int]int{}
			for _, days := range []int{90, 360} {
				src, ds := writeSource(t, 8, days)
				dir := t.TempDir()
				e := New(dir, WithLayout(layout), WithWAL(wal.SyncBatch))
				if _, err := e.Load(src); err != nil {
					t.Fatal(err)
				}
				var ids []timeseries.ID
				for _, s := range ds.Series {
					ids = append(ids, s.ID)
				}
				baseN := len(ds.Temperature.Values)
				if err := e.Append(hourBatch(ids, baseN)); err != nil {
					t.Fatal(err)
				}
				e.Crash()

				re := New(dir, WithWAL(wal.SyncBatch))
				if err := re.Open(); err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				height := re.table.index.height
				heights[days] = height
				stored, _, err := re.table.distinctIDs()
				if err != nil {
					t.Fatal(err)
				}
				if len(stored) != len(ids) {
					t.Fatalf("%d days: %d households listed, want %d", days, len(stored), len(ids))
				}
				for _, id := range stored {
					h0, m0 := re.PoolStats()
					hours, _, _, err := re.committedLen(id)
					h1, m1 := re.PoolStats()
					if err != nil {
						t.Fatal(err)
					}
					if hours != baseN {
						t.Fatalf("%d days: household %d has %d checkpointed hours, want %d", days, id, hours, baseN)
					}
					fetched := h1 - h0 + m1 - m0
					if fetched > int64(2*height) {
						t.Errorf("%d days: household %d: committedLen fetched %d pages, over 2 × height %d", days, id, fetched, height)
					}
					worst[days] = max(worst[days], fetched)
				}
				cur, _, err := re.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				rows := drainSnap(t, cur)
				cur.Close()
				for _, id := range ids {
					if row := rows[id]; len(row) != baseN+1 || row[baseN] != liveVal(id, baseN) {
						t.Fatalf("%d days: household %d: %d hours after replay, want %d ending in its live hour", days, id, len(row), baseN+1)
					}
				}
			}
			if heights[90] != heights[360] {
				t.Fatalf("index heights %d and %d: the two stores do not compare", heights[90], heights[360])
			}
			if worst[360] > worst[90] {
				t.Errorf("committedLen fetched up to %d pages for a 360-day household, %d for a 90-day one", worst[360], worst[90])
			}
		})
	}
}
