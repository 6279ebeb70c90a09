package exec

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Compressed-domain histogram fast path.
//
// When the source keeps per-block (min, max, count) summaries
// (core.SummarySource — the column store's segment headers), the
// histogram task can often skip decoding entirely: the range comes from
// folding block min/max in block order (bit-identical to the
// stats.MinMax scan for NaN-free series, since both use first-attainer
// < and >), and any block whose min and max land in the same bucket
// contributes Count to that bucket exactly (stats.Histogram.Bucket is
// monotone non-decreasing). Only straddling blocks decode raw floats.
//
// The path is gated to FailFast: Quarantine/Repair runs must observe
// per-consumer extraction faults through the normal cursor pipeline,
// and fault wrappers deliberately do not forward SummarySource. Any
// consumer with NaNs, non-finite extrema or no rows falls back to a
// full decode through the same guarded kernel the pipeline uses, so
// results AND errors stay bit-identical to the decoded-oracle path.
//
// The source hands its summaries out in partitions, as it does its rows:
// contiguous ascending consumer ranges, one goroutine each, so the path
// uses every worker of the run (runHistogramSummaries).
//
// Living in exec rather than the engine keeps the enginelayering rule
// intact: engines expose storage traits; task knowledge stays here.

// summaryHistogramApplies reports whether the fast path is eligible.
func summaryHistogramApplies(src Source, spec core.Spec) (core.SummarySource, bool) {
	if spec.Task != core.TaskHistogram || spec.FailPolicy != core.FailFast {
		return nil, false
	}
	ss, ok := src.(core.SummarySource)
	return ss, ok
}

// runHistogramSummaries executes the histogram task over block
// summaries, one summarizePartition per cursor the source hands out for
// the run's workers. One partition runs on the calling goroutine, so a
// one-worker run's phases still add up to its wall time; several run a
// goroutine each. Result order is ascending household ID, same as every
// other path: the partitions' consumer ranges ascend, so their results
// are concatenated in partition order. The run's error is the lowest
// failing partition's, which is the error one cursor over everything
// would have stopped at; a failing partition stops only itself, so it
// can never hide a lower partition's error. Only ctx stops them all.
func runHistogramSummaries(ctx context.Context, ss core.SummarySource, k *kernel, workers int, out *core.Results) error {
	ph := out.Phases
	start := time.Now()
	curs, err := ss.NewSummaryCursors(workers)
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return err
	}
	parts := make([]core.Results, len(curs))
	errs := make([]error, len(curs))
	for p := range parts {
		parts[p].Phases = &core.Phases{}
	}
	if len(curs) == 1 {
		errs[0] = summarizePartition(ctx, curs[0], k, 0, &parts[0])
	} else {
		var wg sync.WaitGroup
		for p, sc := range curs {
			wg.Add(1)
			go func(p int, sc core.SummaryCursor) {
				defer wg.Done()
				errs[p] = summarizePartition(ctx, sc, k, p, &parts[p])
			}(p, sc)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Each partition booked its own busy time; sum after the join.
	for p := range parts {
		pp := parts[p].Phases
		ph.Extract.Add(pp.Extract)
		ph.Compute.Add(pp.Compute)
		ph.Emit.Add(pp.Emit)
		ph.SummaryBlocks += pp.SummaryBlocks
		ph.DecodedBlocks += pp.DecodedBlocks
		start = time.Now()
		out.Histograms = append(out.Histograms, parts[p].Histograms...)
		ph.Emit.Wall += time.Since(start)
	}
	return nil
}

// summarizePartition drains one summary cursor into out, which nothing
// else touches: partition p's results, in ID order, and its phases. It
// closes the cursor. A panic under it (a corrupt segment image) becomes
// the partition's error, as in the pipeline's decode goroutines.
func summarizePartition(ctx context.Context, sc core.SummaryCursor, k *kernel, p int, out *core.Results) (err error) {
	defer func() { _ = sc.Close() }()
	defer func() {
		if v := recover(); v != nil {
			err = core.NewPanicError(v)
		}
	}()
	spec, ph := k.spec, out.Phases
	var decodeBuf []float64
	var series timeseries.Series // reused for fallback consumers
	for {
		if err := core.CtxErr(ctx); err != nil {
			return err
		}
		start := time.Now()
		id, blocks, err := sc.NextSummary()
		ph.Extract.Wall += time.Since(start)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		ph.Extract.Rows++

		if summaryNeedsDecode(blocks) {
			// Assemble the full series and run the ordinary kernel so
			// NaN propagation, empty-series errors and bucket edges are
			// decided by exactly the code the slow path runs.
			start = time.Now()
			n := seriesLen(blocks)
			if cap(decodeBuf) < n {
				decodeBuf = make([]float64, n)
			}
			full := decodeBuf[:n]
			for b, bs := range blocks {
				if bs.Count == 0 {
					continue
				}
				if err := sc.DecodeBlock(b, full[bs.Start:bs.Start+bs.Count]); err != nil {
					return err
				}
				ph.DecodedBlocks++
			}
			ph.Extract.Wall += time.Since(start)
			ph.Extract.Bytes += int64(8 * n)
			series = timeseries.Series{ID: id, Readings: full}
			start = time.Now()
			r, err := k.compute(p, &series)
			ph.Compute.Wall += time.Since(start)
			ph.Compute.Rows++
			if err != nil {
				return err // FailFast: first failure aborts the run
			}
			// The reused decode buffer must not escape into results.
			r.hist.Histogram = cloneHistogram(r.hist.Histogram)
			emitHistogram(out, r.hist)
			continue
		}

		start = time.Now()
		var gmin, gmax float64
		first := true
		for _, bs := range blocks {
			if bs.Count == 0 {
				continue
			}
			if first {
				gmin, gmax = bs.Min, bs.Max
				first = false
				continue
			}
			if bs.Min < gmin {
				gmin = bs.Min
			}
			if bs.Max > gmax {
				gmax = bs.Max
			}
		}
		h := &stats.Histogram{Min: gmin, Max: gmax, Counts: make([]int64, spec.Buckets)}
		for b, bs := range blocks {
			if bs.Count == 0 {
				continue
			}
			if h.Bucket(bs.Min) == h.Bucket(bs.Max) {
				// Bucket is monotone in its argument, so min and max
				// sharing a bucket pins every value of the block there.
				h.AddN(bs.Min, int64(bs.Count))
				ph.SummaryBlocks++
				continue
			}
			if cap(decodeBuf) < bs.Count {
				decodeBuf = make([]float64, bs.Count)
			}
			blk := decodeBuf[:bs.Count]
			if err := sc.DecodeBlock(b, blk); err != nil {
				return err
			}
			ph.DecodedBlocks++
			ph.Extract.Bytes += int64(8 * bs.Count)
			h.AddAll(blk)
		}
		ph.Compute.Wall += time.Since(start)
		ph.Compute.Rows++
		emitHistogram(out, &histogram.Result{ID: id, Histogram: h})
	}
}

// summaryNeedsDecode reports whether a consumer must take the full
// decode fallback: any NaNs (the summary skipped them; the kernel must
// see them), non-finite extrema (bucket arithmetic overflows), or an
// empty series (the kernel owns the ErrEmptyInput contract).
func summaryNeedsDecode(blocks []core.BlockStats) bool {
	total := 0
	for _, bs := range blocks {
		if bs.NaNs > 0 {
			return true
		}
		if bs.Count > 0 && (math.IsInf(bs.Min, 0) || math.IsInf(bs.Max, 0)) {
			return true
		}
		total += bs.Count
	}
	return total == 0
}

func seriesLen(blocks []core.BlockStats) int {
	n := 0
	for _, bs := range blocks {
		if end := bs.Start + bs.Count; end > n {
			n = end
		}
	}
	return n
}

func cloneHistogram(h *stats.Histogram) *stats.Histogram {
	return &stats.Histogram{
		Min:    h.Min,
		Max:    h.Max,
		Counts: append([]int64(nil), h.Counts...),
	}
}

func emitHistogram(out *core.Results, r *histogram.Result) {
	ph := out.Phases
	start := time.Now()
	out.Histograms = append(out.Histograms, r)
	ph.Emit.Wall += time.Since(start)
	ph.Emit.Rows++
}
