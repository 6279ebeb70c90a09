// Package exec is the shared execution layer under all five engines:
// one extract → compute → emit pipeline that runs any benchmark task
// from any core.Cursor, with per-stage wall-clock and volume counters
// surfaced on core.Results.Phases.
//
// The split of responsibilities mirrors the paper's cost anatomy
// (Figure 6): the *engine* owns extraction — its native decode path,
// exposed as a cursor — while the pipeline owns task dispatch, worker
// fan-out, and deterministic result assembly. Engines therefore shrink
// to Load + NewCursors + capabilities; none of them re-implements task
// switching.
//
// Every task runs as partitions, on one of two paths, and every source
// opens them one way: NewCursors(W) (core.PartitionedSource), which is
// NewCursors(1) at one worker. A per-consumer task (histogram, 3-line,
// PAR) opens up to Spec.Workers disjoint partitions, and each
// partition runs one loop: pull a small block of series off its cursor
// (extract), run the kernel over it (compute), append the results
// (emit), repeat. One partition runs on the calling goroutine, so at one
// worker (the paper's single-threaded runs, §5.3.3) the stages
// alternate and their times add up to the run's; several (§5.3.4) run a
// goroutine each, and their results are joined in partition order,
// which is household-ID order except over the cluster engines'
// interleaved partitions, which are sorted once. The run's kernel slots,
// one per worker, are shared out among the partitions, so a source with
// fewer partitions than workers computes each block on several slots at
// once, a goroutine per slot. Blocks keep a streaming engine's memory
// flat (Figure 8): a cursor that takes rows (core.RowTaker) decodes each
// block into the rows of the block before it, so a cold run allocates
// one block of rows per partition, not one row per household. A
// fail-fast histogram partition whose cursor hands out block summaries
// (core.SummaryCursor, the column store's cold cursors) walks the
// summaries instead and decodes only the blocks that straddle a bucket
// edge (summary.go).
//
// The whole-dataset similarity task drains the partitions, one
// goroutine each, into one row-major buffer that becomes the blocked
// kernel's packed matrix without a copy (drain.go). On both paths the
// lowest failing partition's error is the run's, and a failure stops
// the partitions after it (eachPartition).
//
// Warm start (Figure 6) is one step above the engines, the same on all
// five: Warm drains a source once into a packed dataset, and warm runs
// read it through NewDatasetSource, whose range shards the
// per-consumer tasks fan out over and whose dataset a similarity run
// screens in place, so its cached packing serves every run (warm.go).
//
// # Failure containment
//
// Every path runs under a context.Context (RunContext): cancelling it
// stops extraction promptly — openCursors binds the context to every
// cursor (core.Cursor.BindContext), and the pipeline checks it between
// Next calls — and the run joins all of its goroutines and closes every
// cursor before returning the context's error.
//
// Spec.FailPolicy scopes failures to the consumer they belong to
// instead of the run (see core.FailPolicy). Under Quarantine or Repair,
// a per-consumer cursor error (core.ConsumerError: the cursor has moved
// past the consumer), a kernel error and a recovered kernel panic land
// on Results.Failed, and nothing is retried; a series with missing
// (NaN) readings is quarantined, or — under Repair — routed through the
// hybrid imputer (internal/impute) and demoted to quarantine only when
// every reading is missing. Unaffected consumers produce bit-identical
// results to a run over a dataset without the failed series.
package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/impute"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Source is what the pipeline needs from an engine: cursors over the
// loaded series and the shared temperature year. core.Engine and
// core.Snapshot satisfy it.
type Source interface {
	core.PartitionedSource
	Temperature() (*timeseries.Temperature, error)
}

// contain carries one run's failure-containment state: the policy and
// the quarantined consumers. add is safe for concurrent use (a run's
// partitions share one collector).
type contain struct {
	policy core.FailPolicy

	mu     sync.Mutex
	failed []core.ConsumerFailure
}

func (c *contain) add(id timeseries.ID, phase string, err error) {
	c.mu.Lock()
	c.failed = append(c.failed, core.ConsumerFailure{ID: id, Phase: phase, Err: err})
	c.mu.Unlock()
}

// finish moves the collected failures onto the results in ascending
// household-ID order.
func (c *contain) finish(out *core.Results) {
	c.mu.Lock()
	failed := c.failed
	c.failed = nil
	c.mu.Unlock()
	sort.Slice(failed, func(i, j int) bool { return failed[i].ID < failed[j].ID })
	out.Failed = failed
}

// next pulls one series off the cursor under the fail policy.
// Outcomes: (s, nil) on success; (nil, io.EOF) when drained; (nil, nil)
// when a consumer was quarantined (failure recorded); (nil, err) when
// the run must abort.
func (c *contain) next(ctx context.Context, cur core.Cursor) (*timeseries.Series, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := cur.Next()
	if err == nil {
		return s, nil
	}
	if errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if ctx.Err() != nil {
		// A bound cursor surfaces cancellation as its own error;
		// report the cancellation, not a consumer failure.
		return nil, ctx.Err()
	}
	if c.policy == core.FailFast {
		return nil, err
	}
	ce, ok := core.AsConsumerError(err)
	if !ok {
		// Not scoped to one consumer: the storage layer itself is
		// broken. Fatal under every policy.
		return nil, err
	}
	// The cursor has moved past the consumer.
	c.add(ce.ID, core.PhaseExtract, err)
	return nil, nil
}

// countMissing returns the number of NaN readings.
func countMissing(readings []float64) int {
	n := 0
	for _, v := range readings {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// screen inspects an extracted series for missing readings under
// Quarantine/Repair. It returns the series to compute (possibly a
// repaired copy — engine-owned buffers are never mutated), or nil when
// the consumer was quarantined. FailFast skips the scan entirely, so
// the default path pays nothing.
func (c *contain) screen(s *timeseries.Series) *timeseries.Series {
	if c.policy == core.FailFast {
		return s
	}
	miss := countMissing(s.Readings)
	if miss == 0 {
		return s
	}
	if c.policy == core.Quarantine {
		c.add(s.ID, core.PhaseExtract, fmt.Errorf("%w (%d of %d)", core.ErrMissingData, miss, len(s.Readings)))
		return nil
	}
	// Repair: impute a copy with the hybrid strategy. A series the
	// imputer cannot save (every reading missing) demotes to
	// quarantine.
	cp := s.Clone()
	if err := impute.CleanSeries(cp, 0); err != nil {
		c.add(s.ID, core.PhaseRepair, err)
		return nil
	}
	return cp
}

// computeErr decides whether a per-consumer compute error (kernel error
// or recovered panic) is quarantined (returns nil) or fatal.
func (c *contain) computeErr(id timeseries.ID, err error) error {
	if c.policy == core.FailFast {
		return err
	}
	c.add(id, core.PhaseCompute, err)
	return nil
}

// Run executes one task from the source's cursor through the
// instrumented three-stage pipeline with a background context. See
// RunContext.
func Run(src Source, spec core.Spec) (*core.Results, error) {
	return RunContext(context.Background(), src, spec)
}

// RunContext executes one task from the source's cursor through the
// instrumented three-stage pipeline. Result order is ascending
// household ID — the order the Cursor contract fixes and the order
// core.RunReference produces — so engines stay bit-identical to the
// oracle at every worker count. Cancelling ctx stops the run promptly
// with every partition's goroutine joined and every cursor closed.
func RunContext(ctx context.Context, src Source, spec core.Spec) (*core.Results, error) {
	spec = spec.WithDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := spec.Workers

	ph := &core.Phases{}
	// Temperature comes first on every path so engine-side caching it
	// triggers (e.g. the row store memoizing the shared series) is
	// sequenced before any cursor goroutine starts.
	start := time.Now()
	temp, err := src.Temperature()
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return nil, err
	}

	out := &core.Results{Task: spec.Task, Phases: ph}
	cn := &contain{policy: spec.FailPolicy}
	k, err := newKernel(spec, temp, workers, ph)
	if err != nil {
		return nil, err
	}
	if err := dispatch(ctx, src, temp, k, workers, out, cn); err != nil {
		return nil, err
	}
	k.bookTimings(ph)
	cn.finish(out)
	return out, nil
}

// dispatch picks the path a run takes and runs it: the similarity drain
// for the whole-dataset task, the partition loop for the others. Each
// path opens and closes its own cursors.
func dispatch(ctx context.Context, src Source, temp *timeseries.Temperature, k *kernel, workers int, out *core.Results, cn *contain) error {
	if k.spec.Task == core.TaskSimilarity {
		return runSimilarity(ctx, src, temp, k.spec, workers, out, cn)
	}
	return runConsumers(ctx, src, k, workers, out, cn)
}

// openCursors opens the cursors that between them cover the source,
// bound to ctx, and books the time to extraction: up to max disjoint
// partitions (the source may answer with fewer, or with none when it is
// empty).
func openCursors(ctx context.Context, src Source, max int, ph *core.Phases) ([]core.Cursor, error) {
	start := time.Now()
	curs, err := src.NewCursors(max)
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return nil, err
	}
	if len(curs) > max {
		for _, cur := range curs {
			_ = cur.Close()
		}
		return nil, fmt.Errorf("exec: source %T opened %d partitions, more than the %d asked for", src, len(curs), max)
	}
	for _, cur := range curs {
		cur.BindContext(ctx)
	}
	return curs, nil
}

// eachPartition runs f for partitions 0 to n-1, on the calling goroutine
// when there is one and on a goroutine each otherwise, and returns the
// lowest partition's error once all have finished. A partition that
// fails cancels the context of every partition after it, whose errors
// can no longer be the one returned, and no other: a partition below it
// may still fail, and then its error wins. So which error comes back
// does not depend on timing, and a failed run does not drain the
// partitions above the failure to the end.
func eachPartition(ctx context.Context, n int, f func(ctx context.Context, p int) error) error {
	errs := make([]error, n)
	if n == 1 {
		errs[0] = f(ctx, 0)
	} else {
		ctxs := make([]context.Context, n)
		cancels := make([]context.CancelFunc, n)
		for p := range ctxs {
			ctxs[p], cancels[p] = context.WithCancel(ctx)
		}
		var wg sync.WaitGroup
		for p := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs[p] = f(ctxs[p], p); errs[p] != nil {
					for _, cancel := range cancels[p+1:] {
						cancel()
					}
				}
			}()
		}
		wg.Wait()
		for _, cancel := range cancels {
			cancel()
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSimilarity drains the source's partitions into one matrix
// (extract, drain.go) and runs the blocked all-pairs kernel over it
// (compute); emit is the assignment of the merged top-k lists. Nothing
// overlaps, so extract is the drain's wall time.
func runSimilarity(ctx context.Context, src Source, temp *timeseries.Temperature, spec core.Spec, workers int, out *core.Results, cn *contain) error {
	ph := out.Phases
	ds, err := extractDataset(ctx, src, temp, workers, cn, ph)
	if err != nil {
		return err
	}
	ph.Extract.Rows += int64(len(ds.Series))
	ph.Extract.Bytes += seriesBytes(ds.Series)

	start := time.Now()
	rs, err := safeSimilarity(ds, spec.K, workers)
	ph.Compute.Wall += time.Since(start)
	ph.Compute.Rows += int64(len(ds.Series))
	if err != nil {
		return err
	}

	start = time.Now()
	out.Similar = rs
	ph.Emit.Wall += time.Since(start)
	ph.Emit.Rows += int64(len(rs))
	return nil
}

// extractDataset is a similarity run's extract stage. An in-memory
// dataset (NewDatasetSource, a warm run's) is screened in place, so the
// packing it caches survives; any other source opens up to workers
// partitions, once, and drains them into one matrix (drainDataset).
func extractDataset(ctx context.Context, src Source, temp *timeseries.Temperature, workers int, cn *contain, ph *core.Phases) (*timeseries.Dataset, error) {
	if d, ok := src.(datasetSource); ok {
		start := time.Now()
		ds, err := screenDataset(ctx, d.ds, cn)
		ph.Extract.Wall += time.Since(start)
		return ds, err
	}
	curs, err := openCursors(ctx, src, workers, ph)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ds, err := drainDataset(ctx, curs, temp, cn)
	ph.Extract.Wall += time.Since(start)
	return ds, err
}

// safeSimilarity runs the all-pairs kernel with a panic backstop: the
// whole-dataset task has no per-consumer attribution, so a recovered
// panic aborts the run with a debuggable error instead of killing the
// process.
func safeSimilarity(ds *timeseries.Dataset, k, workers int) (rs []*similarity.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("exec: similarity kernel: %w", core.NewPanicError(v))
		}
	}()
	return similarity.ComputeParallel(ds, k, workers)
}

// screenDataset applies the fail policy to an already materialized
// dataset. The clean common case returns the dataset untouched (cached
// flat-matrix packing survives); a dataset with dirty series gets a
// fresh Series slice holding repaired copies or omitting quarantined
// consumers.
func screenDataset(ctx context.Context, ds *timeseries.Dataset, cn *contain) (*timeseries.Dataset, error) {
	if cn.policy == core.FailFast {
		return ds, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirty := false
	for _, s := range ds.Series {
		if countMissing(s.Readings) > 0 {
			dirty = true
			break
		}
	}
	if !dirty {
		return ds, nil
	}
	series := make([]*timeseries.Series, 0, len(ds.Series))
	for _, s := range ds.Series {
		if s = cn.screen(s); s != nil {
			series = append(series, s)
		}
	}
	return &timeseries.Dataset{Series: series, Temperature: ds.Temperature}, nil
}

// kernel is what one run computes per consumer: the task with its
// parameters, the plans built once from the shared temperature year,
// and a scratch and a timing slot per worker, one for each partition a
// run may have, so that partitions never share a write.
type kernel struct {
	spec core.Spec

	line    *threeline.Plan
	lineScr []threeline.Scratch
	tims    []threeline.Timing // 3-line sub-phases, summed by bookTimings

	par    *par.Plan
	parScr []par.Scratch
}

// fitted is one consumer's result: the field of the run's task, or none
// for a quarantined consumer.
type fitted struct {
	hist *histogram.Result
	line *threeline.Result
	prof *par.Result
}

// newKernel prepares the run's kernel for workers slots. 3-line and PAR
// go through the shared temperature year once for the whole run here;
// that time is compute time (and T1 time for 3-line).
func newKernel(spec core.Spec, temp *timeseries.Temperature, workers int, ph *core.Phases) (*kernel, error) {
	k := &kernel{spec: spec}
	start := time.Now()
	switch spec.Task {
	case core.TaskHistogram, core.TaskSimilarity:
		return k, nil
	case core.TaskThreeLine:
		k.line = threeline.NewPlan(temp, threeline.DefaultConfig())
		k.lineScr = make([]threeline.Scratch, workers)
		k.tims = make([]threeline.Timing, workers)
	case core.TaskPAR:
		k.par = par.NewPlan(temp, spec.Order)
		k.parScr = make([]par.Scratch, workers)
	default:
		return nil, fmt.Errorf("exec: unknown task %v", spec.Task)
	}
	d := time.Since(start)
	ph.Compute.Wall += d
	if k.line != nil {
		ph.T1Quantiles += d
	}
	return k, nil
}

// compute runs the kernel for one consumer on slot w. A panic
// inside it (the similarity tile-index and stats matrix invariants
// panic on malformed shapes) becomes a per-consumer error carrying the
// stack, so the fail policy can quarantine the consumer instead of
// losing the run.
func (k *kernel) compute(w int, s *timeseries.Series) (r fitted, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &core.ConsumerError{ID: s.ID, Err: core.NewPanicError(v)}
		}
	}()
	switch k.spec.Task {
	case core.TaskHistogram:
		r.hist, err = histogram.ComputeBuckets(s, k.spec.Buckets)
	case core.TaskThreeLine:
		var tm threeline.Timing
		if r.line, tm, err = k.line.Compute(s, &k.lineScr[w]); err == nil {
			k.tims[w].T1Quantiles += tm.T1Quantiles
			k.tims[w].T2Regression += tm.T2Regression
			k.tims[w].T3Adjust += tm.T3Adjust
		}
	case core.TaskPAR:
		r.prof, err = k.par.Compute(s, &k.parScr[w])
	}
	return r, err
}

// computeRange runs the kernel over series in order on slot w and
// stores the results in res, index for index. Kernel errors and panics
// follow the fail policy: a quarantined consumer leaves its slot empty.
func (k *kernel) computeRange(w int, series []*timeseries.Series, res []fitted, cn *contain) error {
	for i, s := range series {
		r, err := k.compute(w, s)
		if err != nil {
			if err := cn.computeErr(s.ID, err); err != nil {
				return err
			}
			continue
		}
		res[i] = r
	}
	return nil
}

// computeBlock runs computeRange over a block on up to lanes kernel
// slots from lo, each slot over a contiguous chunk of the block
// (eachPartition: inline for one, a goroutine each for several). The
// results land index for index, so the block keeps its order, and the
// lowest chunk's error, the first the serial loop would meet, wins.
func (k *kernel) computeBlock(ctx context.Context, lo, lanes int, series []*timeseries.Series, res []fitted, cn *contain) error {
	lanes = min(lanes, len(series))
	return eachPartition(ctx, lanes, func(_ context.Context, l int) error {
		a, b := l*len(series)/lanes, (l+1)*len(series)/lanes
		return k.computeRange(lo+l, series[a:b], res[a:b], cn)
	})
}

// bookTimings moves the slots' 3-line sub-phase times onto the phases.
func (k *kernel) bookTimings(ph *core.Phases) {
	for _, tm := range k.tims {
		ph.T1Quantiles += tm.T1Quantiles
		ph.T2Regression += tm.T2Regression
		ph.T3Adjust += tm.T3Adjust
	}
}

// emit appends the results of the consumers that have one, in order,
// and returns their number.
func emit(out *core.Results, res []fitted) int {
	n := 0
	for _, r := range res {
		switch {
		case r.hist != nil:
			out.Histograms = append(out.Histograms, r.hist)
		case r.line != nil:
			out.ThreeLines = append(out.ThreeLines, r.line)
		case r.prof != nil:
			out.Profiles = append(out.Profiles, r.prof)
		default:
			continue
		}
		n++
	}
	return n
}

// block is how many series a partition extracts for each of its kernel
// slots before it computes them: enough that the loop's per-block costs
// stay small beside the kernel's, few enough that a streaming cursor
// (the partitioned file engine, the row store) holds only a bounded
// number of decoded series at a time, so memory stays flat (Figure 8).
const block = 16

// runConsumers is the per-consumer path at every worker count: it opens
// up to workers cursors (openCursors) and runs each partition's loop
// over its cursor (runPartitions). The kernel's workers slots are shared
// out among the partitions in contiguous runs, so a source that splits
// into fewer partitions than workers (a cluster engine's reduce tasks,
// an unpartitioned file, a row store's small pool) still computes on
// workers goroutines. A fail-fast histogram partition whose cursor hands
// out block summaries (core.SummaryCursor) answers from them on its
// first slot (summarizePartition); every other partition decodes its
// series (consumePartition).
func runConsumers(ctx context.Context, src Source, k *kernel, workers int, out *core.Results, cn *contain) error {
	curs, err := openCursors(ctx, src, workers, out.Phases)
	if err != nil {
		return err
	}
	n := len(curs)
	summaries := k.spec.Task == core.TaskHistogram && k.spec.FailPolicy == core.FailFast
	return runPartitions(ctx, out, n, func(ctx context.Context, p int, part *core.Results) error {
		lo, hi := p*workers/n, (p+1)*workers/n
		if sc, ok := curs[p].(core.SummaryCursor); ok && summaries {
			return summarizePartition(ctx, curs[p], sc, k, lo, part)
		}
		return consumePartition(ctx, curs[p], k, lo, hi-lo, cn, part)
	})
}

// consumePartition is one partition's loop: extract a block of series,
// compute it on the partition's lanes kernel slots from lo
// (computeBlock), emit it into out, repeat. The stages alternate, so
// their times add up to the partition's elapsed time. out is the
// partition's own: its results in cursor order and its phases. It
// closes the cursor, and a panic under it (a corrupt page, a buggy
// parser) becomes the partition's error.
//
// A cursor that is a core.RowTaker decodes each block into the rows of
// the block before it, so a run allocates at most one block of rows per
// partition however many series it reads. That is safe because nothing
// reads a series' Readings once its block is emitted: results hold only
// computed values, and a repaired copy belongs to the partition.
func consumePartition(ctx context.Context, cur core.Cursor, k *kernel, lo, lanes int, cn *contain, out *core.Results) (err error) {
	defer func() { _ = cur.Close() }()
	defer func() {
		if v := recover(); v != nil {
			err = core.NewPanicError(v)
		}
	}()
	ph := out.Phases
	taker, _ := cur.(core.RowTaker)
	buf := make([]*timeseries.Series, 0, block*lanes)
	var rows [][]float64 // the emitted block's rows, for a RowTaker
	for {
		if taker != nil {
			rows = rows[:0]
			for _, s := range buf {
				rows = append(rows, s.Readings)
			}
		}
		buf = buf[:0]
		start := time.Now()
		drained, err := fill(ctx, cur, &buf, taker, rows, cn)
		ph.Extract.Wall += time.Since(start)
		if err != nil {
			return err
		}
		ph.Extract.Rows += int64(len(buf))
		ph.Extract.Bytes += seriesBytes(buf)

		start = time.Now()
		res := make([]fitted, len(buf))
		err = k.computeBlock(ctx, lo, lanes, buf, res, cn)
		ph.Compute.Wall += time.Since(start)
		ph.Compute.Rows += int64(len(buf))
		if err != nil {
			return err
		}
		start = time.Now()
		ph.Emit.Rows += int64(emit(out, res))
		ph.Emit.Wall += time.Since(start)
		if drained {
			return nil
		}
	}
}

// runPartitions runs f for partitions 0 to n-1 through eachPartition
// (the calling goroutine for one, a goroutine each for several; the
// lowest partition's error wins), each into results and phases of its
// own that nothing else touches. After the join it sums the phases onto
// out's and appends the results in partition order, which is
// household-ID order when the partitions are ascending ranges; the
// cluster engines' hash partitions interleave, and are sorted by ID
// once. The appending and sorting are emit time.
func runPartitions(ctx context.Context, out *core.Results, n int, f func(ctx context.Context, p int, part *core.Results) error) error {
	parts := make([]core.Results, n)
	for p := range parts {
		parts[p] = core.Results{Task: out.Task, Phases: &core.Phases{}}
	}
	if err := eachPartition(ctx, n, func(ctx context.Context, p int) error {
		return f(ctx, p, &parts[p])
	}); err != nil {
		return err
	}
	ph := out.Phases
	start := time.Now()
	for p := range parts {
		pp := parts[p].Phases
		ph.Extract.Add(pp.Extract)
		ph.Compute.Add(pp.Compute)
		ph.Emit.Add(pp.Emit)
		ph.SummaryBlocks += pp.SummaryBlocks
		ph.DecodedBlocks += pp.DecodedBlocks
		out.Histograms = append(out.Histograms, parts[p].Histograms...)
		out.ThreeLines = append(out.ThreeLines, parts[p].ThreeLines...)
		out.Profiles = append(out.Profiles, parts[p].Profiles...)
	}
	sortByID(out.Histograms, func(r *histogram.Result) timeseries.ID { return r.ID })
	sortByID(out.ThreeLines, func(r *threeline.Result) timeseries.ID { return r.ID })
	sortByID(out.Profiles, func(r *par.Result) timeseries.ID { return r.ID })
	ph.Emit.Wall += time.Since(start)
	return nil
}

// sortByID puts results in ascending household-ID order (the order the
// Cursor contract fixes and core.RunReference produces) unless they are
// in it. IDs are unique, so the order is total.
func sortByID[T any](rs []T, id func(T) timeseries.ID) {
	byID := func(a, b T) int { return cmp.Compare(id(a), id(b)) }
	if !slices.IsSortedFunc(rs, byID) {
		slices.SortFunc(rs, byID)
	}
}

// fill pulls computable series off the cursor until buf is at capacity,
// quarantining per the fail policy; drained reports that
// the cursor hit io.EOF. Before each Next it hands taker the row of
// rows at the index the series will take in buf, if there is one: a
// series the fail policy drops leaves its row to the next.
func fill(ctx context.Context, cur core.Cursor, buf *[]*timeseries.Series, taker core.RowTaker, rows [][]float64, cn *contain) (drained bool, err error) {
	for len(*buf) < cap(*buf) {
		if i := len(*buf); i < len(rows) {
			taker.TakeRow(rows[i])
		}
		s, err := cn.next(ctx, cur)
		if errors.Is(err, io.EOF) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if s == nil {
			continue // quarantined
		}
		if s = cn.screen(s); s == nil {
			continue
		}
		*buf = append(*buf, s)
	}
	return false, nil
}

// seriesBytes approximates the decoded payload of a series slice (8
// bytes per reading).
func seriesBytes(series []*timeseries.Series) int64 {
	var b int64
	for _, s := range series {
		b += int64(8 * len(s.Readings))
	}
	return b
}
