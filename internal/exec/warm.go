package exec

import (
	"context"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Warm is the benchmark's warm start (Figure 6: the data already in
// memory, as after MADLib's SELECT or Matlab's loaded matrices), the
// same step above every engine. It opens up to workers of the source's
// partitions (workers below 1 count as 1, as in core.Spec) and drains
// them in parallel under FailFast into one dataset in household-ID
// order (drainDataset): packed, its buffer the similarity kernel's
// matrix, when the partitions are ascending ranges, as every
// single-server engine's are. Warm runs read it through
// NewDatasetSource, each under its own fail policy. Cancelling ctx
// stops the drain, with every partition's goroutine joined and every
// cursor closed, and returns the context's error.
func Warm(ctx context.Context, src Source, workers int) (*timeseries.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	temp, err := src.Temperature()
	if err != nil {
		return nil, err
	}
	curs, err := openCursors(ctx, src, max(workers, 1), &core.Phases{})
	if err != nil {
		return nil, err
	}
	return drainDataset(ctx, curs, temp, &contain{policy: core.FailFast})
}

// NewDatasetSource adapts an in-memory dataset to Source: its
// NewCursors are contiguous range shards of ds.Series, so the
// per-consumer tasks fan out over every worker, and a similarity run
// screens ds in place instead of draining it (extractDataset), so the
// packing ds caches serves every run.
func NewDatasetSource(ds *timeseries.Dataset) Source { return datasetSource{ds: ds} }

type datasetSource struct{ ds *timeseries.Dataset }

func (s datasetSource) NewCursors(max int) ([]core.Cursor, error) {
	var curs []core.Cursor
	for _, r := range core.PartitionRanges(len(s.ds.Series), max) {
		curs = append(curs, &datasetCursor{series: s.ds.Series[r[0]:r[1]]})
	}
	return curs, nil
}

func (s datasetSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

// datasetCursor yields one range shard of an in-memory dataset's series.
type datasetCursor struct {
	series []*timeseries.Series
	ctx    context.Context
	i      int
	closed bool
}

func (c *datasetCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *datasetCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.series) {
		return nil, io.EOF
	}
	s := c.series[c.i]
	c.i++
	return s, nil
}

func (c *datasetCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *datasetCursor) Close() error {
	c.closed = true
	return nil
}

func (c *datasetCursor) SizeHint() (int, bool) { return len(c.series), true }
