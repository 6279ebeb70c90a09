package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Modelled record sizes: what a shuffle or a collect moves per record
// and what a node accounts for holding it.
const (
	readingBytes = 16 // one (hour, consumption) pair
	valueBytes   = 8  // one reading of an assembled series
)

// partition is one task's output, held on the node that built it. Its
// records are typed: parsed readings (what the shuffle plan's scan emits)
// or whole series (what cursors collect), never both.
type partition struct {
	node     int
	bytes    int64
	readings []meterdata.Reading
	series   []*timeseries.Series
}

func (p *partition) addReading(r meterdata.Reading) {
	p.readings = append(p.readings, r)
	p.bytes += readingBytes
}

func (p *partition) addSeries(s *timeseries.Series) {
	p.series = append(p.series, s)
	p.bytes += int64(len(s.Readings)) * valueBytes
}

// job runs the stages of one extraction on the cluster, all launched
// from the driver under one profile, and owns the node memory their
// output occupies. A partition is accounted on its node from the moment
// its task finishes; what the profile decides is when it stops being
// accounted: once the next stage (or the driver) has consumed it, or
// only when the job closes.
type job struct {
	cluster *distsim.Cluster
	prof    profile

	mu   sync.Mutex
	held map[*partition]bool // the partitions still accounted on their nodes
}

// retain accounts a finished task's output on the node that ran it.
func (j *job) retain(p *partition, node int) {
	p.node = node
	j.cluster.AllocNode(node, p.bytes)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.held == nil {
		j.held = make(map[*partition]bool)
	}
	j.held[p] = true
}

// consumed marks partitions as read by the next stage or the driver: a
// profile that does not keep stage output resident frees them now.
func (j *job) consumed(parts []*partition) {
	if j.prof.resident {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, p := range parts {
		j.freeLocked(p)
	}
}

func (j *job) freeLocked(p *partition) {
	if j.held[p] {
		delete(j.held, p)
		j.cluster.FreeNode(p.node, p.bytes)
	}
}

// close frees whatever the job still accounts: resident stage output,
// and anything a failed or abandoned run left behind.
func (j *job) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for p := range j.held {
		j.freeLocked(p)
	}
}

// scan runs one data-local task per split: read the split's blocks,
// parse its text into the task's partition. Partitions come back in
// split order with records in the order parse added them.
func (j *job) scan(ctx context.Context, splits []dfs.Split, parse func(r io.Reader, out *partition) error) ([]*partition, error) {
	if len(splits) == 0 {
		return nil, fmt.Errorf("cluster: no input splits")
	}
	out := make([]*partition, len(splits))
	tasks := make([]distsim.Task, len(splits))
	for i := range splits {
		split := &splits[i]
		tasks[i] = distsim.Task{
			PreferredNodes: split.PreferredNodes,
			Fn: func(tc *distsim.TaskCtx) error {
				// Reading the split costs network unless data-local. The
				// text streams through the parser, so the task holds its
				// output, not its input.
				for _, b := range split.Blocks {
					tc.ReadBlock(b.Nodes, int64(len(b.Data)))
				}
				tc.Compute(split.Bytes())
				p := &partition{}
				if err := parse(split.Reader(), p); err != nil {
					return err
				}
				j.retain(p, tc.Node())
				out[i] = p
				return nil
			},
		}
	}
	if err := j.cluster.RunCtx(ctx, j.prof.dispatch, tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// shuffle is the wide stage: every reading moves to the partition its
// household hashes to (n partitions, partition p on node p mod nodes;
// n <= 0 means one per node), then one task per partition fetches its
// readings and hands them to reduce, in source-partition order. This
// network-bound step is why format 1 is the slow format of Figures 13
// and 16.
func (j *job) shuffle(ctx context.Context, in []*partition, n int, reduce func(readings []meterdata.Reading, out *partition) error) ([]*partition, error) {
	nodes := j.cluster.Nodes()
	if n <= 0 {
		n = nodes
	}
	// Two passes, so each bucket is allocated once at its final size: the
	// first counts what every source sends to every partition (which is
	// also what the network moves), the second copies the readings.
	bucketOf := func(r meterdata.Reading) int { return int(hashKey(r.ID) % uint64(n)) }
	sizes := make([]int, n)
	var moves []distsim.Move
	for _, src := range in {
		sent := make([]int, n)
		for _, r := range src.readings {
			sent[bucketOf(r)]++
		}
		for p, count := range sent {
			sizes[p] += count
			if count > 0 {
				moves = append(moves, distsim.Move{From: src.node, To: p % nodes, Bytes: int64(count) * readingBytes})
			}
		}
	}
	buckets := make([][]meterdata.Reading, n)
	for p := range buckets {
		buckets[p] = make([]meterdata.Reading, 0, sizes[p])
	}
	for _, src := range in {
		for _, r := range src.readings {
			p := bucketOf(r)
			buckets[p] = append(buckets[p], r)
		}
	}
	j.cluster.TransferConcurrentCtx(ctx, moves)
	j.consumed(in)

	out := make([]*partition, n)
	tasks := make([]distsim.Task, n)
	for p := range tasks {
		tasks[p] = distsim.Task{
			PreferredNodes: []int{p % nodes},
			Fn: func(tc *distsim.TaskCtx) error {
				// The fetched readings are the task's working memory,
				// released when it ends.
				fetched := int64(len(buckets[p])) * readingBytes
				tc.Alloc(fetched)
				tc.Compute(fetched)
				part := &partition{}
				if err := reduce(buckets[p], part); err != nil {
					return err
				}
				j.retain(part, tc.Node())
				out[p] = part
				return nil
			},
		}
	}
	if err := j.cluster.RunCtx(ctx, j.prof.dispatch, tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// collect moves the partitions' series to the driver and returns them in
// partition order. Disjoint partition sets can be collected
// concurrently: the transfer accounting is cluster-side and thread-safe,
// and a partition's records are read-only once its task has finished.
func (j *job) collect(ctx context.Context, parts []*partition) []*timeseries.Series {
	moves := make([]distsim.Move, len(parts))
	var out []*timeseries.Series
	for i, p := range parts {
		moves[i] = distsim.Move{From: p.node, To: -1, Bytes: p.bytes}
		out = append(out, p.series...)
	}
	j.cluster.TransferConcurrentCtx(ctx, moves)
	j.consumed(parts)
	return out
}

// broadcast ships a read-only value of the given size from the driver to
// every node once, like a Spark broadcast variable or a Hive map-join
// table.
func (j *job) broadcast(ctx context.Context, bytes int64) {
	moves := make([]distsim.Move, j.cluster.Nodes())
	for n := range moves {
		moves[n] = distsim.Move{From: -1, To: n, Bytes: bytes}
	}
	j.cluster.TransferConcurrentCtx(ctx, moves)
}

// hashKey is the shuffle's partitioner: FNV-1a over the household ID's
// eight bytes, low byte first.
func hashKey(id timeseries.ID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(id>>(8*i)))) * 1099511628211
	}
	return h
}
