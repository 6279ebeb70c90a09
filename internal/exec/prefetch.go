package exec

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// This file is the per-consumer path at more than one worker. One decode
// goroutine per cursor — the source's disjoint partitions when it is a
// core.PartitionedSource, its one cursor over everything otherwise —
// drains it into a bounded channel of series blocks; compute workers
// consume blocks as they land, so decode and kernel time overlap instead
// of alternating. The results are put in household-ID order at the end,
// keeping every engine bit-identical to core.RunReference.
//
// Memory stays flat: the channel holds at most two blocks per cursor
// (double buffering — one being filled, one in flight) and each worker
// one more, so a fully backed-up pipeline pins O((cursors + workers) ×
// block) series. A cursor keeps every series it has yielded intact (the
// core.Cursor contract), so the blocks in flight stay valid while their
// cursor advances.
//
// Phase accounting is per-goroutine busy time: each decode goroutine
// owns one slot of the extract accumulators, each worker one slot of the
// compute accumulators, and the sums are gathered only after the
// WaitGroup joins. Under overlap the summed busy time legitimately
// exceeds the Run's elapsed wall clock — that surplus is the measured
// overlap.
//
// Failure containment composes with the overlap: each decode goroutine
// runs the same retry/quarantine/repair logic as the one-worker loop's
// fill (the shared contain collector is mutex-guarded), a panic in a
// decode goroutine or compute worker is recovered into the shared error
// slot instead of killing the process, and cancelling the run context
// closes the stop channel path so every goroutine parks out promptly.

// runPrefetch drives the pipeline over the source's cursors. It closes
// every cursor it opened, and returns only after every goroutine it
// started has exited.
func runPrefetch(ctx context.Context, src Source, k *kernel, workers int, out *core.Results, cn *contain) error {
	ph := out.Phases
	curs, err := openCursors(ctx, src, workers, ph)
	if err != nil {
		return err
	}
	nparts := len(curs)
	block := blockFor(workers)

	// Double-buffered and backpressured: a decode goroutine that gets two
	// blocks ahead of compute parks on the send instead of decoding on.
	blocks := make(chan []*timeseries.Series, 2*nparts)
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
	extract := make([]core.PhaseStat, nparts)

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
			for {
				// Fresh buffer per block: the previous one is owned by
				// whichever worker picked it up.
				buf := make([]*timeseries.Series, 0, block)
				t0 := time.Now()
				drained, err := fill(ctx, cur, &buf, block, cn)
				extract[p].Wall += time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				extract[p].Rows += int64(len(buf))
				extract[p].Bytes += seriesBytes(buf)
				if len(buf) > 0 {
					select {
					case blocks <- buf:
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

	compute := make([]core.PhaseStat, workers)
	computed := make([][]fitted, workers) // per worker, in the order it finished them
	var computeWG sync.WaitGroup
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
				res := make([]fitted, len(blk))
				err := k.computeRange(w, blk, res, cn)
				compute[w].Wall += time.Since(t0)
				if err != nil {
					fail(err)
					continue
				}
				compute[w].Rows += int64(len(blk))
				computed[w] = append(computed[w], res...)
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

	for _, e := range extract {
		ph.Extract.Add(e)
	}
	for _, c := range compute {
		ph.Compute.Add(c)
	}

	// Workers finish blocks in no particular order, and the cluster
	// engines' hash partitions interleave anyway: one sort by household ID
	// restores the reference order for everyone.
	start := time.Now()
	for _, res := range computed {
		emit(out, res)
	}
	sortResultsByID(out)
	ph.Emit.Wall += time.Since(start)
	ph.Emit.Rows += int64(out.Count())
	return nil
}

// sortResultsByID restores ascending household-ID order — the order the
// Cursor contract fixes and core.RunReference produces. IDs are unique,
// so the order is total.
func sortResultsByID(out *core.Results) {
	switch out.Task {
	case core.TaskHistogram:
		slices.SortFunc(out.Histograms, func(a, b *histogram.Result) int { return cmp.Compare(a.ID, b.ID) })
	case core.TaskThreeLine:
		slices.SortFunc(out.ThreeLines, func(a, b *threeline.Result) int { return cmp.Compare(a.ID, b.ID) })
	case core.TaskPAR:
		slices.SortFunc(out.Profiles, func(a, b *par.Result) int { return cmp.Compare(a.ID, b.ID) })
	}
}
