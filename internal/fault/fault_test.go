package fault_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func makeDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetIDs(ds *timeseries.Dataset) []timeseries.ID {
	ids := make([]timeseries.ID, len(ds.Series))
	for i, s := range ds.Series {
		ids[i] = s.ID
	}
	return ids
}

// mixedConfig injects every fault kind at the seeded rates the
// acceptance tests pin (5–15% per kind over the dataset).
func mixedConfig() fault.Config {
	return fault.Config{
		Seed:       42,
		Permanent:  0.15,
		AllMissing: 0.05, Corrupt: 0.08,
	}
}

func TestDecideIsDeterministicAndOrderFree(t *testing.T) {
	cfg := mixedConfig()
	ds := makeDataset(t, 200, 7)
	ids := datasetIDs(ds)
	plan := cfg.Plan(ids)
	if len(plan) == 0 {
		t.Fatal("no faults drawn at ~28% combined rate over 200 consumers")
	}
	counts := map[fault.Kind]int{}
	for _, k := range plan {
		counts[k]++
	}
	for _, k := range []fault.Kind{fault.Permanent, fault.AllMissing, fault.Corrupt} {
		if counts[k] == 0 {
			t.Errorf("kind %v never drawn over 200 consumers", k)
		}
	}
	// Same config, reversed ID order: identical decisions.
	for _, id := range ids {
		if cfg.Decide(id) != cfg.Decide(id) {
			t.Fatalf("Decide(%d) not stable", id)
		}
	}
	other := cfg
	other.Seed++
	differs := false
	for _, id := range ids {
		if cfg.Decide(id) != other.Decide(id) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("changing the seed changed no decision")
	}
}

// datasetCursor opens one cursor over every series of ds.
func datasetCursor(t *testing.T, ds *timeseries.Dataset) core.Cursor {
	t.Helper()
	curs, err := exec.NewDatasetSource(ds).NewCursors(1)
	if err != nil {
		t.Fatal(err)
	}
	return curs[0]
}

func TestCorruptWindowKeepsEdges(t *testing.T) {
	cfg := fault.Config{Seed: 9, Corrupt: 1}
	ds := makeDataset(t, 10, 7)
	cur := fault.WrapCursor(datasetCursor(t, ds), cfg)
	defer cur.Close()
	n := 0
	for {
		s, err := cur.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if math.IsNaN(s.Readings[0]) || math.IsNaN(s.Readings[len(s.Readings)-1]) {
			t.Errorf("consumer %d: corrupt window reached the series edge", s.ID)
		}
		miss := 0
		for _, v := range s.Readings {
			if math.IsNaN(v) {
				miss++
			}
		}
		if miss == 0 {
			t.Errorf("consumer %d: no NaN injected at rate 1", s.ID)
		}
		// The engine-owned series must be untouched.
		for _, v := range ds.Series[n-1].Readings {
			if math.IsNaN(v) {
				t.Fatalf("consumer %d: engine-owned buffer mutated", s.ID)
			}
		}
	}
	if n != 10 {
		t.Fatalf("served %d of 10", n)
	}
}

func TestQuarantineReportsExactlyInjectedIDs(t *testing.T) {
	ds := makeDataset(t, 60, 14)
	ids := datasetIDs(ds)
	cfg := mixedConfig()
	want := cfg.FailingIDs(ids, core.Quarantine)
	if len(want) == 0 {
		t.Fatal("expected a non-empty quarantine set; pick a different seed")
	}

	for _, task := range []core.Task{core.TaskHistogram, core.TaskThreeLine, core.TaskPAR, core.TaskSimilarity} {
		for _, workers := range []int{1, 4} {
			src := fault.New(exec.NewDatasetSource(ds), cfg)
			spec := core.Spec{Task: task, K: 3, Workers: workers, FailPolicy: core.Quarantine}
			got, err := exec.Run(src, spec)
			if err != nil {
				t.Fatalf("%v w%d: %v", task, workers, err)
			}
			gotIDs := got.FailedIDs()
			if len(gotIDs) != len(want) {
				t.Fatalf("%v w%d: %d failed consumers, want %d\n got %v\nwant %v",
					task, workers, len(gotIDs), len(want), gotIDs, want)
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
}

// TestSurvivorsBitIdentical pins the containment guarantee: consumers
// untouched by injection produce exactly the results of a clean run
// over the dataset with the quarantined consumers removed.
func TestSurvivorsBitIdentical(t *testing.T) {
	ds := makeDataset(t, 40, 14)
	ids := datasetIDs(ds)
	cfg := mixedConfig()
	failing := cfg.FailingIDs(ids, core.Quarantine)
	failSet := map[timeseries.ID]bool{}
	for _, id := range failing {
		failSet[id] = true
	}
	kept := &timeseries.Dataset{Temperature: ds.Temperature}
	for _, s := range ds.Series {
		if !failSet[s.ID] {
			kept.Series = append(kept.Series, s)
		}
	}

	spec := core.Spec{Task: core.TaskThreeLine, Workers: 2, FailPolicy: core.Quarantine}
	got, err := exec.Run(fault.New(exec.NewDatasetSource(ds), cfg), spec)
	if err != nil {
		t.Fatal(err)
	}
	clean := spec
	clean.FailPolicy = core.FailFast
	want, err := exec.Run(exec.NewDatasetSource(kept), clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ThreeLines) != len(want.ThreeLines) {
		t.Fatalf("%d results, want %d", len(got.ThreeLines), len(want.ThreeLines))
	}
	for i := range want.ThreeLines {
		g, w := got.ThreeLines[i], want.ThreeLines[i]
		if g.ID != w.ID {
			t.Fatalf("result %d: ID %d vs %d", i, g.ID, w.ID)
		}
		if g.BaseLoad != w.BaseLoad || g.HeatingGradient != w.HeatingGradient ||
			g.CoolingGradient != w.CoolingGradient {
			t.Fatalf("consumer %d: model drifted under injection", g.ID)
		}
	}
}

func TestRepairSavesCorruptDemotesAllMissing(t *testing.T) {
	ds := makeDataset(t, 60, 14)
	ids := datasetIDs(ds)
	cfg := mixedConfig()
	want := cfg.FailingIDs(ids, core.Repair)
	plan := cfg.Plan(ids)

	src := fault.New(exec.NewDatasetSource(ds), cfg)
	got, err := exec.Run(src, core.Spec{Task: core.TaskHistogram, FailPolicy: core.Repair})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs := got.FailedIDs()
	if len(gotIDs) != len(want) {
		t.Fatalf("%d failed, want %d\n got %v\nwant %v", len(gotIDs), len(want), gotIDs, want)
	}
	for i := range want {
		if gotIDs[i] != want[i] {
			t.Fatalf("failed[%d] = %d, want %d", i, gotIDs[i], want[i])
		}
	}
	// Corrupt consumers were repaired, not quarantined: they have
	// results.
	resultIDs := map[timeseries.ID]bool{}
	for _, r := range got.Histograms {
		resultIDs[r.ID] = true
	}
	for id, k := range plan {
		if k == fault.Corrupt && !resultIDs[id] {
			t.Errorf("corrupt consumer %d not repaired under Repair", id)
		}
	}
	// All-missing consumers were demoted with the repair phase attached.
	for _, f := range got.Failed {
		if plan[f.ID] == fault.AllMissing && f.Phase != core.PhaseRepair {
			t.Errorf("all-missing consumer %d failed in phase %q, want %q", f.ID, f.Phase, core.PhaseRepair)
		}
	}
}

func TestFailFastAbortsOnFirstFault(t *testing.T) {
	ds := makeDataset(t, 10, 7)
	cfg := fault.Config{Seed: 1, Permanent: 1}
	_, err := exec.Run(fault.New(exec.NewDatasetSource(ds), cfg), core.Spec{Task: core.TaskHistogram})
	if !errors.Is(err, fault.ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
}

// An injected consumer error is not retried: the pipeline quarantines
// the consumer at its first failing Next and reads on, so one partition
// over n consumers that all fail takes n Nexts and the one that ends it.
func TestConsumerErrorIsNotRetried(t *testing.T) {
	ds := makeDataset(t, 20, 7)
	var calls atomic.Int64
	cfg := fault.Config{Seed: 3, Permanent: 1, Calls: &calls}
	got, err := exec.Run(fault.New(exec.NewDatasetSource(ds), cfg),
		core.Spec{Task: core.TaskHistogram, Workers: 1, FailPolicy: core.Quarantine})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 || len(got.Failed) != 20 {
		t.Fatalf("count = %d, failed = %d; want 0 and 20", got.Count(), len(got.Failed))
	}
	if n := calls.Load(); n != 21 {
		t.Fatalf("%d Next calls, want 21 (one per consumer and the EOF)", n)
	}
	for _, f := range got.Failed {
		if !errors.Is(f.Err, fault.ErrPermanent) || f.Phase != core.PhaseExtract {
			t.Errorf("consumer %d: %v in phase %q, want ErrPermanent in %q", f.ID, f.Err, f.Phase, core.PhaseExtract)
		}
	}
}

func TestTruncationQuarantinesTail(t *testing.T) {
	ds := makeDataset(t, 20, 7)
	cfg := fault.Config{Seed: 5, TruncateAfter: 5}
	got, err := exec.Run(fault.New(exec.NewDatasetSource(ds), cfg),
		core.Spec{Task: core.TaskHistogram, FailPolicy: core.Quarantine})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 5 {
		t.Fatalf("count = %d, want 5 (TruncateAfter)", got.Count())
	}
	if len(got.Failed) != 15 {
		t.Fatalf("%d failed, want 15", len(got.Failed))
	}
	for _, f := range got.Failed {
		if !errors.Is(f.Err, fault.ErrTruncated) {
			t.Errorf("consumer %d: cause %v, want ErrTruncated", f.ID, f.Err)
		}
		if f.Phase != core.PhaseExtract {
			t.Errorf("consumer %d: phase %q, want %q", f.ID, f.Phase, core.PhaseExtract)
		}
		if want := fmt.Sprintf("consumer %d: permanent: %v", f.ID, fault.ErrTruncated); f.Err.Error() != want {
			t.Errorf("consumer %d: error %q, want %q", f.ID, f.Err, want)
		}
	}
}

func TestDelayedCursorIsCancellable(t *testing.T) {
	ds := makeDataset(t, 50, 7)
	cfg := fault.Config{Seed: 6, Delay: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := exec.RunContext(ctx, fault.New(exec.NewDatasetSource(ds), cfg),
			core.Spec{Task: core.TaskHistogram, FailPolicy: core.Quarantine})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if since := time.Since(start); since > time.Second {
			t.Fatalf("cancellation took %v", since)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

func TestResetReplaysIdenticalFaults(t *testing.T) {
	ds := makeDataset(t, 30, 7)
	cfg := mixedConfig()
	cur := fault.WrapCursor(datasetCursor(t, ds), cfg)
	defer cur.Close()
	pass := func() (served []timeseries.ID, failed []timeseries.ID) {
		for {
			s, err := cur.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				ce, ok := core.AsConsumerError(err)
				if !ok {
					t.Fatal(err)
				}
				failed = append(failed, ce.ID)
				continue
			}
			served = append(served, s.ID)
		}
	}
	s1, f1 := pass()
	if err := cur.Reset(); err != nil {
		t.Fatal(err)
	}
	s2, f2 := pass()
	if len(s1) != len(s2) || len(f1) != len(f2) {
		t.Fatalf("replay drifted: %d/%d served, %d/%d failed", len(s1), len(s2), len(f1), len(f2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("served[%d]: %d vs %d", i, s1[i], s2[i])
		}
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("failed[%d]: %d vs %d", i, f1[i], f2[i])
		}
	}
}
