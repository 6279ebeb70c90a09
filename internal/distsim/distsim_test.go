package distsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testCluster(t *testing.T, nodes, slots int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes:           nodes,
		SlotsPerNode:    slots,
		TransferLatency: time.Microsecond,
		BytesPerSecond:  1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, SlotsPerNode: 1, BytesPerSecond: 1},
		{Nodes: 1, SlotsPerNode: 0, BytesPerSecond: 1},
		{Nodes: 1, SlotsPerNode: 1, BytesPerSecond: 0},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 16 {
		t.Errorf("nodes = %d", c.Nodes())
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	c := testCluster(t, 4, 2)
	var count atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = Task{Fn: func(ctx *TaskCtx) error {
			count.Add(1)
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), 0, tasks); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 50 {
		t.Errorf("ran %d tasks", count.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := testCluster(t, 2, 1)
	boom := errors.New("boom")
	tasks := []Task{
		{Fn: func(*TaskCtx) error { return nil }},
		{Fn: func(*TaskCtx) error { return boom }},
	}
	if err := c.RunCtx(context.Background(), 0, tasks); err != boom {
		t.Errorf("err = %v", err)
	}
	if err := c.RunCtx(context.Background(), 0, nil); err != nil {
		t.Errorf("empty run err = %v", err)
	}
}

func TestSlotLimitEnforced(t *testing.T) {
	c := testCluster(t, 2, 3) // 6 slots total
	var running, peak atomic.Int64
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = Task{Fn: func(*TaskCtx) error {
			r := running.Add(1)
			for {
				p := peak.Load()
				if r <= p || peak.CompareAndSwap(p, r) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), 0, tasks); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 6 {
		t.Errorf("peak concurrency %d exceeds 6 slots", peak.Load())
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	c := testCluster(t, 4, 4)
	var onPreferred atomic.Int64
	tasks := make([]Task, 20)
	for i := range tasks {
		want := i % 4
		tasks[i] = Task{
			PreferredNodes: []int{want},
			Fn: func(ctx *TaskCtx) error {
				if ctx.Node() == want {
					onPreferred.Add(1)
				}
				return nil
			},
		}
	}
	if err := c.RunCtx(context.Background(), 0, tasks); err != nil {
		t.Fatal(err)
	}
	// With ample slots every task should land on its preferred node.
	if onPreferred.Load() != 20 {
		t.Errorf("only %d/20 tasks were data-local", onPreferred.Load())
	}
}

func TestTransferAccounting(t *testing.T) {
	c := testCluster(t, 3, 1)
	c.TransferConcurrentCtx(context.Background(), []Move{
		{From: 0, To: 1, Bytes: 1000},
		{From: 1, To: 1, Bytes: 9999}, // local: free
		{From: 2, To: 0, Bytes: 500},
	})
	s := c.Stats()
	if s.BytesMoved != 1500 || s.Transfers != 2 {
		t.Errorf("stats = %+v", s)
	}
	c.ResetStats()
	if s := c.Stats(); s.BytesMoved != 0 || s.Transfers != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestTransferTakesTime(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, SlotsPerNode: 1,
		TransferLatency: 0,
		BytesPerSecond:  1 << 20, // 1 MiB/s
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// 256 KiB at 1 MiB/s = 250ms
	c.TransferConcurrentCtx(context.Background(), []Move{{From: 0, To: 1, Bytes: 1 << 18}})
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Errorf("transfer took %v, want >= 200ms", d)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := testCluster(t, 2, 1)
	err := c.RunCtx(context.Background(), 0, []Task{{
		PreferredNodes: []int{0},
		Fn: func(ctx *TaskCtx) error {
			ctx.Alloc(1000)
			ctx.Alloc(500)
			ctx.Free(200)
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.MemPeakPerNode[0] != 1500 {
		t.Errorf("peak = %d, want 1500", s.MemPeakPerNode[0])
	}
	if s.PeakMemory() != 1500 {
		t.Errorf("total peak = %d", s.PeakMemory())
	}
	// Task exit auto-frees the remainder; node usage returns to zero.
	if got := c.nodes[0].memUsed.Load(); got != 0 {
		t.Errorf("memUsed after task = %d", got)
	}
}

func TestAllocFreeNode(t *testing.T) {
	c := testCluster(t, 2, 1)
	c.AllocNode(1, 4096)
	if c.Stats().MemPeakPerNode[1] != 4096 {
		t.Error("AllocNode not recorded")
	}
	c.FreeNode(1, 4096)
	if c.nodes[1].memUsed.Load() != 0 {
		t.Error("FreeNode not applied")
	}
	// Out-of-range and non-positive are no-ops.
	c.AllocNode(-1, 100)
	c.AllocNode(5, 100)
	c.AllocNode(0, -5)
	c.FreeNode(9, 10)
}

func TestReadBlockLocality(t *testing.T) {
	c := testCluster(t, 3, 1)
	err := c.RunCtx(context.Background(), 0, []Task{{
		PreferredNodes: []int{0},
		Fn: func(ctx *TaskCtx) error {
			ctx.ReadBlock([]int{ctx.Node()}, 100)     // local
			ctx.ReadBlock([]int{ctx.Node() + 1}, 100) // remote
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.LocalReads != 1 || s.RemoteReads != 1 {
		t.Errorf("reads = %d local, %d remote", s.LocalReads, s.RemoteReads)
	}
}

func TestPermanentErrorsNotRetried(t *testing.T) {
	c := testCluster(t, 2, 1)
	var attempts atomic.Int64
	boom := errors.New("boom")
	err := c.RunCtx(context.Background(), 0, []Task{{Fn: func(*TaskCtx) error {
		attempts.Add(1)
		return boom
	}}})
	if err != boom {
		t.Errorf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Errorf("failing task ran %d times, want 1", attempts.Load())
	}
}

// TestEachTaskRunsOnce: on every cluster shape each task body runs
// exactly once, whether it succeeds or fails, and a failing task still
// hands back its slot and its memory: afterwards a stage with one task
// per slot, each waiting for all the others to start, can run.
func TestEachTaskRunsOnce(t *testing.T) {
	for _, shape := range []struct{ nodes, slots int }{{1, 1}, {2, 1}, {4, 2}, {3, 3}} {
		t.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.slots), func(t *testing.T) {
			c := testCluster(t, shape.nodes, shape.slots)
			boom := errors.New("boom")
			runs := make([]atomic.Int64, 30)
			tasks := make([]Task, len(runs))
			for i := range tasks {
				tasks[i] = Task{PreferredNodes: []int{i % shape.nodes}, Fn: func(ctx *TaskCtx) error {
					runs[i].Add(1)
					ctx.Alloc(1 << 10)
					if i%3 == 0 {
						return boom
					}
					return nil
				}}
			}
			if err := runWithin(t, c, tasks); err != boom {
				t.Errorf("err = %v, want boom", err)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Errorf("task %d ran %d times, want 1", i, n)
				}
			}
			if got := c.MemoryInUse(); got != 0 {
				t.Errorf("%d bytes still accounted after the stage", got)
			}

			width := shape.nodes * shape.slots
			var started sync.WaitGroup
			started.Add(width)
			wide := make([]Task, width)
			for i := range wide {
				wide[i] = Task{Fn: func(*TaskCtx) error {
					started.Done()
					started.Wait()
					return nil
				}}
			}
			if err := runWithin(t, c, wide); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runWithin runs one stage and fails the test if it has not finished
// within ten seconds, as a stage waiting on a lost slot never would.
func runWithin(t *testing.T, c *Cluster, tasks []Task) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.RunCtx(context.Background(), 0, tasks) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("stage still running after 10 s: a slot was not handed back")
		return nil
	}
}

func TestComputeChargesSimulatedTime(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, SlotsPerNode: 1, BytesPerSecond: 1 << 40,
		ComputeBytesPerSecond: 1 << 20, // 1 MiB/s
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.RunCtx(context.Background(), 0, []Task{{Fn: func(ctx *TaskCtx) error {
		ctx.Compute(1 << 18) // 256 KiB at 1 MiB/s = 250ms
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Errorf("compute took %v, want >= 200ms", d)
	}
	// Disabled rate is a no-op.
	off := testCluster(t, 1, 1)
	start = time.Now()
	off.RunCtx(context.Background(), 0, []Task{{Fn: func(ctx *TaskCtx) error { ctx.Compute(1 << 30); return nil }}})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("disabled compute slept %v", d)
	}
}

// TestDispatchIsChargedAndCancellable: the driver's per-task launch cost
// is paid serially before the stage starts, and like every modeled delay
// it stops when the context does.
func TestDispatchIsChargedAndCancellable(t *testing.T) {
	c := testCluster(t, 2, 2)
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{Fn: func(*TaskCtx) error { return nil }}
	}
	start := time.Now()
	if err := c.RunCtx(context.Background(), 2*time.Millisecond, tasks); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("stage took %v, want >= 20ms for 10 tasks at 2ms", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := c.RunCtx(ctx, time.Hour, tasks); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled stage: err = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled stage still slept %v", d)
	}
}
