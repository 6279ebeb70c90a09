// Package distsim simulates the paper's 16-worker commodity cluster so
// the distributed engines (the Hive and Spark analogues) run against a
// realistic substrate on one machine.
//
// The simulator models what the paper's cluster experiments measure:
//
//   - per-node task slots (the paper caps parallel executors / MapReduce
//     tasks at the 12 physical cores per node);
//   - a gigabit-Ethernet-like network: every remote byte moved during a
//     shuffle, broadcast or non-local read costs latency plus
//     bytes/bandwidth of real wall-clock delay, so shuffle-bound jobs
//     (data format 1) are measurably slower than map-only jobs (formats
//     2 and 3), as in Figures 13-19;
//   - per-node memory accounting (task working memory, and stage output
//     that outlives its task via AllocNode/FreeNode), powering the
//     Figure 15 comparison of Spark's and Hive's footprints;
//   - the driver's serial cost of launching each task of a stage (RunCtx).
//
// Every modeled delay and every accounted byte is charged here, at the
// rates of the one Config; the engines on top only say how many bytes
// and which tasks.
//
// Delays are scaled down (configurable) so whole experiment suites run
// in seconds while preserving the relative costs.
package distsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// SleepCtx sleeps for d or until ctx is cancelled, whichever comes
// first. All simulated costs (network, compute, dispatch) go through it
// so a cancelled run stops paying modeled delays immediately.
func SleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the number of worker nodes (the paper uses 16).
	Nodes int
	// SlotsPerNode is the number of concurrent task slots per node
	// (the paper uses up to 12, the physical core count).
	SlotsPerNode int
	// TransferLatency is the fixed cost per remote transfer.
	TransferLatency time.Duration
	// BytesPerSecond is the simulated per-transfer network bandwidth.
	BytesPerSecond float64
	// ComputeBytesPerSecond, when positive, is the simulated per-slot
	// processing rate charged by TaskCtx.Compute. It lets a cluster
	// larger than the host's physical core count show genuine scaling:
	// simulated compute is sleep-based, so it parallelizes across all
	// simulated slots rather than being capped by real CPUs. Zero
	// disables the charge (tasks cost only their real CPU time).
	ComputeBytesPerSecond float64
}

// DefaultConfig returns a 16-node cluster with a scaled-down
// gigabit-like network (high bandwidth so test suites stay fast, but
// non-zero so shuffles cost real time).
func DefaultConfig() Config {
	return Config{
		Nodes:           16,
		SlotsPerNode:    12,
		TransferLatency: 50 * time.Microsecond,
		BytesPerSecond:  2 << 30, // 2 GiB/s simulated
	}
}

// Cluster is a simulated cluster. It is safe for concurrent use.
type Cluster struct {
	cfg   Config
	nodes []*Node

	bytesMoved  atomic.Int64
	transfers   atomic.Int64
	localReads  atomic.Int64
	remoteReads atomic.Int64
	retries     atomic.Int64

	// failure injection (see InjectFailures)
	failMu     sync.Mutex
	failRate   float64
	failRng    *rand.Rand
	maxRetries int
}

// Node is one simulated worker.
type Node struct {
	id    int
	slots chan struct{}

	memUsed atomic.Int64
	memPeak atomic.Int64
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("distsim: nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.SlotsPerNode <= 0 {
		return nil, fmt.Errorf("distsim: slots must be positive, got %d", cfg.SlotsPerNode)
	}
	if cfg.BytesPerSecond <= 0 {
		return nil, fmt.Errorf("distsim: bandwidth must be positive, got %g", cfg.BytesPerSecond)
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{id: i, slots: make(chan struct{}, cfg.SlotsPerNode)}
		for s := 0; s < cfg.SlotsPerNode; s++ {
			n.slots <- struct{}{}
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Nodes returns the number of worker nodes.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// TaskCtx is handed to every running task for memory accounting and
// data movement.
type TaskCtx struct {
	cluster *Cluster
	node    *Node
	held    int64
	// ctx is the run's cancellation context; modeled sleeps in Compute
	// and ReadBlock select on it.
	ctx context.Context
}

// Node returns the node the task runs on.
func (t *TaskCtx) Node() int { return t.node.id }

// Alloc records bytes of working memory held by this task.
func (t *TaskCtx) Alloc(bytes int64) {
	if bytes <= 0 {
		return
	}
	t.held += bytes
	t.node.alloc(bytes)
}

// alloc adds bytes to the node's accounted memory and raises its peak.
func (n *Node) alloc(bytes int64) {
	used := n.memUsed.Add(bytes)
	for {
		peak := n.memPeak.Load()
		if used <= peak || n.memPeak.CompareAndSwap(peak, used) {
			break
		}
	}
}

// Free releases previously recorded working memory.
func (t *TaskCtx) Free(bytes int64) {
	if bytes <= 0 {
		return
	}
	if bytes > t.held {
		bytes = t.held
	}
	t.held -= bytes
	t.node.memUsed.Add(-bytes)
}

// Compute charges the simulated processing cost of handling the given
// number of input bytes on this task's slot. A no-op when the cluster
// has no configured compute rate.
func (t *TaskCtx) Compute(bytes int64) {
	rate := t.cluster.cfg.ComputeBytesPerSecond
	if rate <= 0 || bytes <= 0 {
		return
	}
	SleepCtx(t.ctx, time.Duration(float64(bytes)/rate*float64(time.Second)))
}

// ReadBlock models reading one stored block: free if a replica lives on
// this node, a network transfer otherwise.
func (t *TaskCtx) ReadBlock(replicaNodes []int, bytes int64) {
	for _, n := range replicaNodes {
		if n == t.node.id {
			t.cluster.localReads.Add(1)
			return
		}
	}
	t.cluster.remoteReads.Add(1)
	src := t.node.id
	if len(replicaNodes) > 0 {
		src = replicaNodes[0]
	}
	t.cluster.transfer(t.ctx, src, t.node.id, bytes)
}

// transfer models moving bytes between two nodes (or between a node and
// the driver, which is any negative index). Local "transfers" are free.
func (c *Cluster) transfer(ctx context.Context, from, to int, bytes int64) {
	if from == to {
		return
	}
	c.transfers.Add(1)
	c.bytesMoved.Add(bytes)
	delay := c.cfg.TransferLatency +
		time.Duration(float64(bytes)/c.cfg.BytesPerSecond*float64(time.Second))
	SleepCtx(ctx, delay)
}

// Move describes one pending transfer for TransferConcurrentCtx.
type Move struct {
	From, To int
	Bytes    int64
}

// TransferConcurrentCtx performs a batch of transfers in parallel, as a
// real network would: the wall-clock cost is the slowest single
// transfer, not the sum. Shuffles, broadcasts and collects use this.
// Cancelled transfers stop sleeping (the byte accounting still happens;
// the run is aborting anyway).
func (c *Cluster) TransferConcurrentCtx(ctx context.Context, moves []Move) {
	var wg sync.WaitGroup
	for _, m := range moves {
		if m.From == m.To {
			continue
		}
		wg.Add(1)
		go func(m Move) {
			defer wg.Done()
			c.transfer(ctx, m.From, m.To, m.Bytes)
		}(m)
	}
	wg.Wait()
}

// AllocNode records memory held on a node beyond any single task's
// lifetime (a stage's output partition). Pair with FreeNode.
func (c *Cluster) AllocNode(node int, bytes int64) {
	if node < 0 || node >= len(c.nodes) || bytes <= 0 {
		return
	}
	c.nodes[node].alloc(bytes)
}

// FreeNode releases memory recorded with AllocNode.
func (c *Cluster) FreeNode(node int, bytes int64) {
	if node < 0 || node >= len(c.nodes) || bytes <= 0 {
		return
	}
	c.nodes[node].memUsed.Add(-bytes)
}

// Task is one schedulable unit of work.
type Task struct {
	// PreferredNodes lists nodes holding the task's input (data
	// locality); empty means any node.
	PreferredNodes []int
	// Fn is the task body.
	Fn func(ctx *TaskCtx) error
}

// ErrTaskLost is returned when a task keeps hitting injected failures
// beyond the retry budget.
var ErrTaskLost = errors.New("distsim: task lost after retries")

// InjectFailures makes each task attempt fail with the given probability
// before its body runs (a simulated mid-task node crash). Failed
// attempts are retried up to maxRetries times, like a MapReduce or Spark
// scheduler re-executing lost tasks. A rate of 0 disables injection.
func (c *Cluster) InjectFailures(rate float64, maxRetries int, seed int64) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	c.failRate = rate
	c.maxRetries = maxRetries
	c.failRng = rand.New(rand.NewSource(seed))
}

// attemptFails draws the injected failure decision for one attempt.
func (c *Cluster) attemptFails() bool {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.failRate <= 0 || c.failRng == nil {
		return false
	}
	return c.failRng.Float64() < c.failRate
}

// RunCtx executes one stage's tasks across the cluster, honouring slot
// limits and preferring data-local placement. dispatch is the driver's
// cost of launching one task, paid serially for the whole stage before
// any task starts (zero for a scheduler that charges none). Injected
// task failures (see InjectFailures) are retried, speculatively avoiding
// the failed node; errors returned by task bodies are permanent. Tasks
// not yet started when ctx fires are skipped, running tasks stop paying
// modeled delays, and the ctx error wins over task errors so callers see
// a clean context.Canceled / DeadlineExceeded; otherwise RunCtx returns
// the first permanent error.
func (c *Cluster) RunCtx(ctx context.Context, dispatch time.Duration, tasks []Task) error {
	if len(tasks) == 0 {
		return nil
	}
	SleepCtx(ctx, time.Duration(len(tasks))*dispatch)
	var wg sync.WaitGroup
	errCh := make(chan error, len(tasks))
	for i := range tasks {
		task := tasks[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			pref := task.PreferredNodes
			for attempt := 0; ; attempt++ {
				if ctx.Err() != nil {
					return
				}
				node := c.acquire(pref)
				if c.attemptFails() {
					node.slots <- struct{}{}
					c.retries.Add(1)
					if attempt >= c.maxRetries {
						errCh <- fmt.Errorf("%w: %d attempts", ErrTaskLost, attempt+1)
						return
					}
					// Re-place away from the failed node.
					pref = without(pref, node.id)
					continue
				}
				tc := &TaskCtx{cluster: c, node: node, ctx: ctx}
				err := task.Fn(tc)
				tc.Free(tc.held)
				node.slots <- struct{}{}
				if err != nil {
					errCh <- err
				}
				return
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// without returns nodes minus the given node id.
func without(nodes []int, id int) []int {
	out := make([]int, 0, len(nodes))
	for _, n := range nodes {
		if n != id {
			out = append(out, n)
		}
	}
	return out
}

// acquire takes a slot, preferring the task's local nodes but falling
// back to any free node rather than waiting forever.
func (c *Cluster) acquire(preferred []int) *Node {
	// Fast path: a preferred node has a free slot.
	for _, p := range preferred {
		if p >= 0 && p < len(c.nodes) {
			select {
			case <-c.nodes[p].slots:
				return c.nodes[p]
			default:
			}
		}
	}
	// Otherwise take the first slot anywhere, scanning round-robin from
	// the first preference to keep placement roughly balanced.
	start := 0
	if len(preferred) > 0 && preferred[0] >= 0 {
		start = preferred[0] % len(c.nodes)
	}
	for {
		for i := 0; i < len(c.nodes); i++ {
			n := c.nodes[(start+i)%len(c.nodes)]
			select {
			case <-n.slots:
				return n
			default:
			}
		}
		// Everything busy: block on the first preferred (or first) node.
		n := c.nodes[start]
		<-n.slots
		return n
	}
}

// Stats is a snapshot of cluster counters.
type Stats struct {
	BytesMoved  int64
	Transfers   int64
	LocalReads  int64
	RemoteReads int64
	// TaskRetries counts injected-failure retries.
	TaskRetries int64
	// MemPeakPerNode is each node's peak task memory in bytes.
	MemPeakPerNode []int64
}

// Stats returns a snapshot of the cluster's counters.
func (c *Cluster) Stats() Stats {
	s := Stats{
		BytesMoved:  c.bytesMoved.Load(),
		Transfers:   c.transfers.Load(),
		LocalReads:  c.localReads.Load(),
		RemoteReads: c.remoteReads.Load(),
		TaskRetries: c.retries.Load(),
	}
	for _, n := range c.nodes {
		s.MemPeakPerNode = append(s.MemPeakPerNode, n.memPeak.Load())
	}
	return s
}

// PeakMemory returns the summed per-node peak memory.
func (s Stats) PeakMemory() int64 {
	var total int64
	for _, m := range s.MemPeakPerNode {
		total += m
	}
	return total
}

// MemoryInUse returns the bytes currently allocated across all nodes
// (task working memory plus long-lived AllocNode pins). Unlike
// PeakMemory it falls back to zero once everything is freed, so tests
// can assert that caches were released.
func (c *Cluster) MemoryInUse() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.memUsed.Load()
	}
	return total
}

// ResetStats zeroes all counters (between experiment runs).
func (c *Cluster) ResetStats() {
	c.bytesMoved.Store(0)
	c.transfers.Store(0)
	c.localReads.Store(0)
	c.remoteReads.Store(0)
	c.retries.Store(0)
	for _, n := range c.nodes {
		n.memPeak.Store(0)
		n.memUsed.Store(0)
	}
}
