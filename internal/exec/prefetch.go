package exec

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// This file is the overlapped extraction path: when an engine exposes
// disjoint partition cursors (core.PartitionedSource) and the spec asks
// for more than one worker on a streaming task, Run hands the cursors to
// runPrefetch instead of the serial loop. One decode goroutine per
// partition drains its cursor into a bounded channel of series blocks;
// compute workers consume blocks as they land, so decode and kernel time
// overlap instead of alternating. A reorder stage keyed by household ID
// restores cursor order, keeping every engine bit-identical to
// core.RunReference.
//
// Memory stays flat: the channel holds at most two blocks per partition
// (double buffering — one being filled, one in flight), so a fully
// backed-up pipeline pins O(partitions × block) series, the same order
// of residency as the serial path's single block times the worker count.
//
// Phase accounting moves from the serial stopwatch to per-goroutine
// busy-time accumulators: each decode goroutine owns one slot of the
// extract accumulators, each worker one slot of the compute
// accumulators, and the sums are gathered only after the WaitGroup
// joins. Under overlap the summed busy time legitimately exceeds the
// Run's elapsed wall clock — that surplus is the measured overlap.
//
// Failure containment composes with the overlap: each decode goroutine
// runs the same retry/quarantine/repair logic as the serial fill (the
// shared contain collector is mutex-guarded), a panic in a decode
// goroutine or compute worker is recovered into the shared error slot
// instead of killing the process, and cancelling the run context closes
// the stop channel path so every goroutine parks out promptly.

// prefetchBlock is one extracted block in flight from a partition's
// decode goroutine to the compute workers.
type prefetchBlock struct {
	part, seq int
	series    []*timeseries.Series
}

// computedBlock is one block's kernel output, tagged with its origin for
// the deterministic reorder in emit. Quarantined consumers leave empty
// slots.
type computedBlock struct {
	part, seq int
	res       []fitted
}

// runPrefetch drives the overlapped pipeline over the partition cursors.
// It takes ownership of every cursor in curs and closes them all, and
// returns only after every goroutine it started has exited.
func runPrefetch(ctx context.Context, curs []core.Cursor, k *kernel, workers int, out *core.Results, cn *contain) error {
	ph := out.Phases
	nparts := len(curs)
	block := blockFor(workers)

	// Double-buffered and backpressured: a decode goroutine that gets two
	// blocks ahead of compute parks on the send instead of decoding on.
	blocks := make(chan prefetchBlock, 2*nparts)
	stop := make(chan struct{})
	var (
		failOnce sync.Once
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failOnce.Do(func() { close(stop) })
	}
	// Cancellation rides the same shutdown path as an error: the watcher
	// goroutine turns ctx.Done into a stop, and is itself released via
	// watchDone when the pipeline drains normally.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-stop:
		case <-watchDone:
		}
	}()

	// Per-goroutine accumulators: slot p belongs to decode goroutine p,
	// slot w to compute worker w. No slot is shared, so the writes need
	// no locks; the sums below happen after the joins.
	extractBusy := make([]time.Duration, nparts)
	extractRows := make([]int64, nparts)
	extractBytes := make([]int64, nparts)

	var extractWG sync.WaitGroup
	for p, cur := range curs {
		extractWG.Add(1)
		go func(p int, cur core.Cursor) {
			defer extractWG.Done()
			defer func() { _ = cur.Close() }()
			// A panic while decoding (a corrupt segment image, a buggy
			// parser) must release the pipeline, not deadlock it: convert
			// it to the run's first error so compute drains and joins.
			defer func() {
				if v := recover(); v != nil {
					fail(core.NewPanicError(v))
				}
			}()
			seq := 0
			for {
				// Fresh buffer per block: the previous one is owned by
				// whichever worker picked it up.
				buf := make([]*timeseries.Series, 0, block)
				t0 := time.Now()
				drained, err := fill(ctx, cur, &buf, block, cn)
				extractBusy[p] += time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				extractRows[p] += int64(len(buf))
				extractBytes[p] += seriesBytes(buf)
				if len(buf) > 0 {
					select {
					case blocks <- prefetchBlock{part: p, seq: seq, series: buf}:
						seq++
					case <-stop:
						return
					}
				}
				if drained {
					return
				}
			}
		}(p, cur)
	}
	go func() {
		extractWG.Wait()
		close(blocks)
	}()

	computeBusy := make([]time.Duration, workers)
	computeRows := make([]int64, workers)
	var (
		computed   []computedBlock
		computedMu sync.Mutex
		computeWG  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		computeWG.Add(1)
		go func(w int) {
			defer computeWG.Done()
			// Backstop for panics outside the per-kernel guards: keep
			// draining so parked decode goroutines always get their send
			// or the stop.
			defer func() {
				if v := recover(); v != nil {
					fail(core.NewPanicError(v))
					for range blocks { //nolint:revive // draining
					}
				}
			}()
			for blk := range blocks {
				select {
				case <-stop:
					// Keep draining without computing so parked decode
					// goroutines always get their send or the stop.
					continue
				default:
				}
				// Parallelism comes from workers holding different blocks,
				// not from fan-out within a block.
				t0 := time.Now()
				res := make([]fitted, len(blk.series))
				err := k.computeRange(w, blk.series, res, cn)
				computeBusy[w] += time.Since(t0)
				if err != nil {
					fail(err)
					continue
				}
				computeRows[w] += int64(len(blk.series))
				computedMu.Lock()
				computed = append(computed, computedBlock{part: blk.part, seq: blk.seq, res: res})
				computedMu.Unlock()
			}
		}(w)
	}
	computeWG.Wait()
	close(watchDone)
	watchWG.Wait()
	// All decode goroutines finished before blocks closed, and every
	// worker finished before Wait returned, so firstErr and the
	// accumulators are safely visible here.
	if firstErr != nil {
		return firstErr
	}

	for p := 0; p < nparts; p++ {
		ph.Extract.Wall += extractBusy[p]
		ph.Extract.Rows += extractRows[p]
		ph.Extract.Bytes += extractBytes[p]
	}
	for w := 0; w < workers; w++ {
		ph.Compute.Wall += computeBusy[w]
		ph.Compute.Rows += computeRows[w]
	}

	start := time.Now()
	sort.Slice(computed, func(i, j int) bool {
		if computed[i].part != computed[j].part {
			return computed[i].part < computed[j].part
		}
		return computed[i].seq < computed[j].seq
	})
	for _, cb := range computed {
		emit(out, cb.res)
	}
	// Partition-major concatenation is already ascending for engines with
	// ID-contiguous shards (file, row, column stores); the cluster
	// engines hand out hash partitions whose ID ranges interleave, so the
	// reorder keyed by household ID restores the reference order for
	// everyone. IsSorted keeps the common case a single cheap pass.
	sortResultsByID(out)
	ph.Emit.Wall += time.Since(start)
	ph.Emit.Rows += int64(out.Count())
	return nil
}

// sortResultsByID restores ascending household-ID order — the order the
// Cursor contract fixes for serial extraction and core.RunReference
// produces.
func sortResultsByID(out *core.Results) {
	switch out.Task {
	case core.TaskHistogram:
		rs := out.Histograms
		less := func(i, j int) bool { return rs[i].ID < rs[j].ID }
		if !sort.SliceIsSorted(rs, less) {
			sort.Slice(rs, less)
		}
	case core.TaskThreeLine:
		rs := out.ThreeLines
		less := func(i, j int) bool { return rs[i].ID < rs[j].ID }
		if !sort.SliceIsSorted(rs, less) {
			sort.Slice(rs, less)
		}
	case core.TaskPAR:
		rs := out.Profiles
		less := func(i, j int) bool { return rs[i].ID < rs[j].ID }
		if !sort.SliceIsSorted(rs, less) {
			sort.Slice(rs, less)
		}
	}
}
