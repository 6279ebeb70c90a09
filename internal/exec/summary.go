package exec

import (
	"context"
	"errors"
	"io"
	"math"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Compressed-domain histogram fast path.
//
// When a partition's cursor keeps per-block (min, max, count) summaries
// (core.SummaryCursor — the column store's paged cursors, over its
// segment headers), the histogram task can often skip decoding
// entirely: the range comes from folding block min/max in block order
// (bit-identical to the stats.MinMax scan for NaN-free series, since
// both use first-attainer < and >), and any block whose min and max
// land in the same bucket contributes Count to that bucket exactly
// (stats.Histogram.Bucket is monotone non-decreasing). Only straddling
// blocks decode raw floats.
//
// The path is gated to FailFast: Quarantine/Repair runs must observe
// per-consumer extraction faults through Next, and fault wrappers and
// snapshot cursors do not implement SummaryCursor. Any consumer with
// NaNs, non-finite extrema or no rows falls back to a full decode
// through the same guarded kernel the decode loop uses, so results AND
// errors stay bit-identical to it.
//
// It is a partition's loop like consumePartition, chosen per cursor by
// runConsumers, so partitions, error order and phases are the ones
// every other per-consumer run has. Living in exec rather than the
// engine keeps the enginelayering rule intact: engines expose storage
// traits; task knowledge stays here.

// summarizePartition drains a partition's cursor through its summaries
// (sc, the same cursor as cur) into out, which nothing else touches: the
// partition's results, in ID order, and its phases. Fallback consumers
// are computed on kernel slot w. It closes the cursor. A panic
// under it (a corrupt segment image) becomes the partition's error, as
// in consumePartition.
func summarizePartition(ctx context.Context, cur core.Cursor, sc core.SummaryCursor, k *kernel, w int, out *core.Results) (err error) {
	defer func() { _ = cur.Close() }()
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
			// decided by exactly the code the decode loop runs.
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
			r, err := k.compute(w, &series)
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

		// Decoding a straddling block is extraction, as in every other
		// path; the rest of this consumer's time is the kernel's.
		start = time.Now()
		var decodeWall time.Duration
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
			decodeStart := time.Now()
			if err := sc.DecodeBlock(b, blk); err != nil {
				return err
			}
			d := time.Since(decodeStart)
			decodeWall += d
			ph.Extract.Wall += d
			ph.DecodedBlocks++
			ph.Extract.Bytes += int64(8 * bs.Count)
			h.AddAll(blk)
		}
		ph.Compute.Wall += time.Since(start) - decodeWall
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
