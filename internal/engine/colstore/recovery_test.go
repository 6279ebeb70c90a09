package colstore

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// TestRecoverySweep runs the crash-injection conformance suite against
// the column store: a deterministic ingestion script (with a mid-script
// checkpoint) is killed at every injected disk operation, the fault
// disk reboots with torn unsynced tails, and the reopened engine must
// serve a bit-exact acked prefix whose analytics match the no-crash
// reference. SyncOff trades the acked-durability guarantee for speed,
// so its sweep only requires consistent (possibly shorter) prefixes.
// Each policy is swept with no block cache and with one of two blocks
// (the checkpointed base holds one block of at most `hours` rows per
// household).
func TestRecoverySweep(t *testing.T) {
	ids := []timeseries.ID{1, 2, 3, 4, 5, 6}
	const hours = 40
	for _, tc := range []struct {
		name    string
		policy  wal.SyncPolicy
		durable bool
	}{
		{"always", wal.SyncAlways, true},
		{"batch", wal.SyncBatch, true},
		{"off", wal.SyncOff, false},
	} {
		for _, b := range budgets(hours)[:2] {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				h := cursortest.RecoveryHarness{
					Open: func(t *testing.T, dir string, disk *fault.Disk) cursortest.RecoveryEngine {
						e := New(dir, WithWAL(tc.policy), WithWALFS(disk), WithMemBudget(b.bytes))
						// A checkpointed base segment must be reattached
						// before replay, or the log's remainder hours would
						// have nothing to land on.
						if _, err := os.Stat(filepath.Join(dir, SegmentFileName)); err == nil {
							if _, err := e.OpenExisting(); err != nil {
								t.Fatalf("reopen after crash: %v", err)
							}
						}
						return e
					},
					Checkpoint: func(eng cursortest.RecoveryEngine) error {
						return eng.(*Engine).Checkpoint()
					},
					Close: func(eng cursortest.RecoveryEngine) {
						if err := eng.(*Engine).Release(); err != nil {
							t.Errorf("release: %v", err)
						}
					},
					Run:     exec.RunSnapshot,
					Durable: tc.durable,
					Hours:   hours,
				}
				cursortest.RunRecovery(t, h, ids)
			})
		}
	}
}
