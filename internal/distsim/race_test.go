package distsim

import (
	"context"
	"sync/atomic"
	"testing"
)

// fastConfig keeps the simulated network instant so race tests spend
// their time exercising concurrency, not sleeping.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.TransferLatency = 0
	cfg.BytesPerSecond = 1 << 40
	return cfg
}

// TestClusterRunRace is the race-regression test for the task scheduler
// (distsim.go RunCtx): every task body runs on its own goroutine, acquires
// node slots, bumps the atomic transfer/memory counters and reports
// through a shared error channel.
func TestClusterRunRace(t *testing.T) {
	c, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	tasks := make([]Task, 200)
	for i := range tasks {
		node := i % c.Nodes()
		tasks[i] = Task{
			PreferredNodes: []int{node},
			Fn: func(ctx *TaskCtx) error {
				ctx.Alloc(1 << 16)
				ctx.ReadBlock([]int{node}, 1<<12)
				ctx.Compute(1 << 10)
				ran.Add(1)
				return nil
			},
		}
	}
	if err := c.RunCtx(context.Background(), 0, tasks); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != int64(len(tasks)) {
		t.Errorf("ran %d tasks, want %d", got, len(tasks))
	}
}

// TestClusterRunRetriesRace drives the failure-injection path, whose
// rng sits behind failMu while tasks race to draw from it.
func TestClusterRunRetriesRace(t *testing.T) {
	c, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.InjectFailures(0.3, 50, 17)
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = Task{Fn: func(ctx *TaskCtx) error { return nil }}
	}
	if err := c.RunCtx(context.Background(), 0, tasks); err != nil {
		t.Fatal(err)
	}
	if c.Stats().TaskRetries == 0 {
		t.Error("expected injected failures to cause retries")
	}
}

// TestTransferConcurrentRace covers the batched shuffle path: parallel
// transfers all update the shared byte/transfer counters.
func TestTransferConcurrentRace(t *testing.T) {
	c, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	moves := make([]Move, 256)
	for i := range moves {
		moves[i] = Move{From: i % c.Nodes(), To: (i + 1) % c.Nodes(), Bytes: 1 << 10}
	}
	c.TransferConcurrentCtx(context.Background(), moves)
	st := c.Stats()
	if st.Transfers != int64(len(moves)) {
		t.Errorf("transfers = %d, want %d", st.Transfers, len(moves))
	}
	if st.BytesMoved != int64(len(moves))<<10 {
		t.Errorf("bytes moved = %d, want %d", st.BytesMoved, int64(len(moves))<<10)
	}
}
