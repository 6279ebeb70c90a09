package cursortest

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// chaosConfig is the shared fault mix for the chaos suites: every fault
// kind, seeded, at rates that hit a handful of consumers in a
// 20-consumer fixture.
func chaosConfig() fault.Config {
	return fault.Config{
		Seed:       0xC4A05,
		Permanent:  0.20,
		AllMissing: 0.06, Corrupt: 0.10,
	}
}

// RunChaos exercises one cursor implementation under seeded fault
// injection and mid-run cancellation, the way the pipeline's
// containment layer drives it: permanent consumers are recorded and
// passed, and cancelling the bound context must stop the stream
// promptly without leaking goroutines or file descriptors. open must
// return a fresh cursor positioned at the first consumer; it is called
// once per sub-check.
func RunChaos(t *testing.T, open func(t *testing.T) core.Cursor) {
	t.Helper()
	cfg := chaosConfig()

	t.Run("FaultsContainExactly", func(t *testing.T) {
		baseline := drain(t, open(t))
		if len(baseline) == 0 {
			t.Fatal("cursor yielded no series")
		}
		wantFailed := permanentIDs(cfg, baseline)

		cur := fault.WrapCursor(open(t), cfg)
		defer func() { _ = cur.Close() }()
		served, failed := chaosDrain(t, cur)

		if len(served)+len(failed) != len(baseline) {
			t.Fatalf("%d served + %d failed != %d consumers", len(served), len(failed), len(baseline))
		}
		if len(failed) != len(wantFailed) {
			t.Fatalf("failed = %v, want %v", failed, wantFailed)
		}
		for i := range wantFailed {
			if failed[i] != wantFailed[i] {
				t.Fatalf("failed[%d] = %d, want %d", i, failed[i], wantFailed[i])
			}
		}
		for i := 1; i < len(served); i++ {
			if served[i-1].id >= served[i].id {
				t.Fatalf("served IDs not strictly ascending: %d then %d", served[i-1].id, served[i].id)
			}
		}
		// Output parity: consumers that drew no fault are bit-identical
		// to the clean drain.
		byID := map[timeseries.ID]snapshot{}
		for _, s := range baseline {
			byID[s.id] = s
		}
		for _, s := range served {
			if cfg.Decide(s.id) != fault.None {
				continue
			}
			want := byID[s.id]
			if len(s.readings) != len(want.readings) {
				t.Fatalf("consumer %d: %d readings under chaos, %d clean", s.id, len(s.readings), len(want.readings))
			}
			for j := range want.readings {
				if !stats.ExactEqual(s.readings[j], want.readings[j]) {
					t.Fatalf("consumer %d reading %d: %v under chaos, %v clean",
						s.id, j, s.readings[j], want.readings[j])
				}
			}
		}
	})

	t.Run("ResetReplaysChaosIdentically", func(t *testing.T) {
		cur := fault.WrapCursor(open(t), cfg)
		defer func() { _ = cur.Close() }()
		served1, failed1 := chaosDrain(t, cur)
		if err := cur.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		served2, failed2 := chaosDrain(t, cur)
		if len(served1) != len(served2) || len(failed1) != len(failed2) {
			t.Fatalf("replay drifted: served %d/%d, failed %d/%d",
				len(served1), len(served2), len(failed1), len(failed2))
		}
		for i := range served1 {
			if served1[i].id != served2[i].id {
				t.Fatalf("served[%d]: %d vs %d", i, served1[i].id, served2[i].id)
			}
		}
		for i := range failed1 {
			if failed1[i] != failed2[i] {
				t.Fatalf("failed[%d]: %d vs %d", i, failed1[i], failed2[i])
			}
		}
	})

	t.Run("CloseIdempotentUnderFaults", func(t *testing.T) {
		cur := fault.WrapCursor(open(t), cfg)
		// Read a little — including, likely, a fault — then close twice.
		for i := 0; i < 3; i++ {
			if _, err := cur.Next(); errors.Is(err, io.EOF) {
				break
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, err := cur.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("Next after Close: err = %v, want io.EOF", err)
		}
	})

	t.Run("CancelledContextStopsNext", func(t *testing.T) {
		cur := open(t)
		defer func() { _ = cur.Close() }()
		ctx, cancel := context.WithCancel(context.Background())
		cur.BindContext(ctx)
		if _, err := cur.Next(); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("Next before cancel: %v", err)
		}
		cancel()
		start := time.Now()
		_, err := cur.Next()
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("Next after cancel: err = %v, want the context error", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Next took %v after cancellation", d)
		}
	})

	t.Run("CancelMidStreamLeaksNothing", func(t *testing.T) {
		baseGoroutines := numGoroutines()
		baseFDs := openFDs(t)

		slow := cfg
		slow.Delay = 2 * time.Millisecond
		cur := fault.WrapCursor(open(t), slow)
		ctx, cancel := context.WithCancel(context.Background())
		cur.BindContext(ctx)
		done := make(chan error, 1)
		go func() {
			for {
				_, err := cur.Next()
				if _, ok := core.AsConsumerError(err); err == nil || ok {
					continue
				}
				done <- err
				return
			}
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if errors.Is(err, io.EOF) {
				t.Log("cursor drained before the cancel landed; cancellation path untested this run")
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("drain stopped with %v, want context.Canceled", err)
			}
		case <-time.After(time.Second):
			t.Fatal("drain did not stop within 1s of cancellation")
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer wcancel()
		waitStable(wctx, t, "goroutines", baseGoroutines, numGoroutines)
		if baseFDs >= 0 {
			waitStable(wctx, t, "fds", baseFDs, func() int { return openFDs(t) })
		}
	})
}

// RunChaosPartitioned exercises a PartitionedSource's cursors under the
// chaos fault mix: wrapped partitions must stay pairwise disjoint,
// their served+failed union must equal the full clean ID set, and each
// partition must contain exactly its own permanent consumers.
func RunChaosPartitioned(t *testing.T, open func(t *testing.T) core.PartitionedSource) {
	t.Helper()
	cfg := chaosConfig()

	t.Run("ChaosUnionCoversExactlyOnce", func(t *testing.T) {
		src := open(t)
		fullCur, err := Open(src)
		if err != nil {
			t.Fatalf("full cursor: %v", err)
		}
		baseline := drain(t, fullCur)
		_ = fullCur.Close()
		wantFailed := permanentIDs(cfg, baseline)

		for _, max := range []int{2, 3} {
			curs, err := src.NewCursors(max)
			if err != nil {
				t.Fatalf("NewCursors(%d): %v", max, err)
			}
			seen := map[timeseries.ID]int{}
			var failed []timeseries.ID
			for p, inner := range curs {
				cur := fault.WrapCursor(inner, cfg)
				served, partFailed := chaosDrain(t, cur)
				for _, s := range served {
					if prev, dup := seen[s.id]; dup {
						t.Fatalf("max=%d: household %d in partitions %d and %d", max, s.id, prev, p)
					}
					seen[s.id] = p
				}
				failed = append(failed, partFailed...)
				if err := cur.Close(); err != nil {
					t.Fatalf("max=%d: partition %d Close: %v", max, p, err)
				}
			}
			sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
			if len(failed) != len(wantFailed) {
				t.Fatalf("max=%d: failed = %v, want %v", max, failed, wantFailed)
			}
			for i := range wantFailed {
				if failed[i] != wantFailed[i] {
					t.Fatalf("max=%d: failed[%d] = %d, want %d", max, i, failed[i], wantFailed[i])
				}
			}
			if len(seen)+len(failed) != len(baseline) {
				t.Fatalf("max=%d: %d served + %d failed != %d consumers",
					max, len(seen), len(failed), len(baseline))
			}
			for _, s := range baseline {
				if _, ok := seen[s.id]; !ok && cfg.Decide(s.id) != fault.Permanent {
					t.Fatalf("max=%d: household %d lost (drew %v)", max, s.id, cfg.Decide(s.id))
				}
			}
		}
	})

	t.Run("CancelOnePartitionLeaksNothing", func(t *testing.T) {
		baseGoroutines := numGoroutines()
		src := open(t)
		curs, err := src.NewCursors(3)
		if err != nil {
			t.Fatalf("NewCursors(3): %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		for _, cur := range curs {
			cur.BindContext(ctx)
		}
		// Read one series off each partition, cancel, then verify every
		// partition refuses further reads and closes cleanly.
		for _, cur := range curs {
			if _, err := cur.Next(); err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("Next before cancel: %v", err)
			}
		}
		cancel()
		for p, cur := range curs {
			if _, err := cur.Next(); err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("partition %d: Next after cancel: err = %v, want the context error", p, err)
			}
		}
		for p, cur := range curs {
			if err := cur.Close(); err != nil {
				t.Fatalf("partition %d Close: %v", p, err)
			}
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer wcancel()
		waitStable(wctx, t, "goroutines", baseGoroutines, numGoroutines)
	})
}

// chaosDrain drives a fault-wrapped cursor the way the pipeline's
// containment layer does: consumer errors are recorded, EOF ends the
// stream. Fatal (non-consumer) errors fail the test.
func chaosDrain(t *testing.T, cur *fault.Cursor) (served []snapshot, failed []timeseries.ID) {
	t.Helper()
	for {
		s, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return served, failed
		}
		if err != nil {
			ce, ok := core.AsConsumerError(err)
			if !ok {
				t.Fatalf("Next: %v", err)
			}
			failed = append(failed, ce.ID)
			continue
		}
		served = append(served, snap(s))
	}
}

// permanentIDs lists, ascending, the consumers the chaos config fails
// at the cursor level: permanent faults (corrupt and all-missing series
// are data-quality faults handled above the cursor).
func permanentIDs(cfg fault.Config, baseline []snapshot) []timeseries.ID {
	var out []timeseries.ID
	for _, s := range baseline {
		if cfg.Decide(s.id) == fault.Permanent {
			out = append(out, s.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func numGoroutines() int { return runtime.NumGoroutine() }

// RunPipelineChaos exercises a full engine run under the chaos fault
// mix and under cancellation. ids is the engine's full consumer set, in
// any order; run must execute the given spec over the fault-injected
// engine — typically
//
//	exec.RunContext(ctx, fault.New(engine, cfg), spec)
//
// The indirection keeps cursortest import-cycle-free: engine test
// packages supply the exec call.
func RunPipelineChaos(t *testing.T, ids []timeseries.ID,
	run func(ctx context.Context, cfg fault.Config, spec core.Spec) (*core.Results, error)) {
	t.Helper()
	cfg := chaosConfig()

	t.Run("QuarantineReportsExactlyInjected", func(t *testing.T) {
		want := cfg.FailingIDs(ids, core.Quarantine)
		if len(want) == 0 {
			t.Fatalf("chaos config injured no consumer out of %d; enlarge the fixture", len(ids))
		}
		for _, task := range []core.Task{core.TaskHistogram, core.TaskSimilarity} {
			for _, workers := range []int{1, 4} {
				spec := core.Spec{Task: task, K: 3, Workers: workers, FailPolicy: core.Quarantine}
				got, err := run(context.Background(), cfg, spec)
				if err != nil {
					t.Fatalf("%v w%d: %v", task, workers, err)
				}
				gotIDs := got.FailedIDs()
				if len(gotIDs) != len(want) {
					t.Fatalf("%v w%d: failed %v, want %v", task, workers, gotIDs, want)
				}
				for i := range want {
					if gotIDs[i] != want[i] {
						t.Fatalf("%v w%d: failed[%d] = %d, want %d", task, workers, i, gotIDs[i], want[i])
					}
				}
				if got.Count()+len(gotIDs) != len(ids) {
					t.Fatalf("%v w%d: %d results + %d failed != %d consumers",
						task, workers, got.Count(), len(gotIDs), len(ids))
				}
			}
		}
	})

	t.Run("RepairSavesCorrupt", func(t *testing.T) {
		want := cfg.FailingIDs(ids, core.Repair)
		spec := core.Spec{Task: core.TaskHistogram, Workers: 2, FailPolicy: core.Repair}
		got, err := run(context.Background(), cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs := got.FailedIDs()
		if len(gotIDs) != len(want) {
			t.Fatalf("failed %v, want %v", gotIDs, want)
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("failed[%d] = %d, want %d", i, gotIDs[i], want[i])
			}
		}
		if got.Count()+len(gotIDs) != len(ids) {
			t.Fatalf("%d results + %d failed != %d consumers", got.Count(), len(gotIDs), len(ids))
		}
	})

	// A cancelled run must stop extracting: wall time on a loaded host
	// says little about that, the number of Next calls the pipeline
	// starts once cancel has returned says it exactly. Each extraction
	// goroutine may already be past its context check and make one more
	// call, which the bound cursor refuses; there are at most as many
	// extraction goroutines as workers. The wall clock is only a backstop
	// against a run that never returns.
	t.Run("CancelMidExtractReturnsPromptly", func(t *testing.T) {
		baseGoroutines := numGoroutines()
		slow := cfg
		slow.Delay = 2 * time.Millisecond
		for _, workers := range []int{1, 4} {
			var calls atomic.Int64
			slow.Calls = &calls
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			spec := core.Spec{Task: core.TaskHistogram, Workers: workers, FailPolicy: core.Quarantine}
			go func(cfg fault.Config) {
				_, err := run(ctx, cfg, spec)
				done <- err
			}(slow)
			time.Sleep(10 * time.Millisecond)
			cancel()
			atCancel := calls.Load()
			select {
			case err := <-done:
				if err == nil {
					t.Logf("w%d: run finished before the cancel landed; nothing to bound", workers)
				} else if !errors.Is(err, context.Canceled) {
					t.Fatalf("w%d: err = %v, want context.Canceled", workers, err)
				} else if late := calls.Load() - atCancel; late > int64(workers) {
					t.Fatalf("w%d: %d Next calls started after cancellation, want <= %d", workers, late, workers)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("w%d: run did not return after cancellation", workers)
			}
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer wcancel()
		waitStable(wctx, t, "goroutines", baseGoroutines, numGoroutines)
	})
}
