package rdd

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Engine is the Spark analogue over a DFS.
type Engine struct {
	fs  *dfs.FS
	ctx *Context

	inputs  []string
	format  meterdata.Format
	grouped bool
	temp    *timeseries.Temperature
}

// Option configures the engine.
type Option func(*Engine)

// WithContext substitutes a custom RDD context (e.g. to change the task
// dispatch overhead).
func WithContext(ctx *Context) Option { return func(e *Engine) { e.ctx = ctx } }

// New returns a Spark-analogue engine over the given DFS.
func New(fs *dfs.FS, opts ...Option) *Engine {
	e := &Engine{fs: fs, ctx: NewContext(fs.Cluster())}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "rdd (Spark analogue)" }

// Capabilities implements core.Engine (Table 1, Spark column:
// regression via Apache Math; histogram, quantiles and similarity
// hand-written).
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Histogram:        core.SupportNone,
		Quantiles:        core.SupportNone,
		Regression:       core.SupportThirdParty,
		CosineSimilarity: core.SupportNone,
	}
}

// Load implements core.Engine: upload the source files into DFS and
// read the shared temperature series driver-side.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	temp, err := meterdata.ReadTemperature(src.Dir)
	if err != nil {
		return nil, err
	}
	var total int64
	var inputs []string
	consumers := make(map[timeseries.ID]bool)
	var readings int64
	for _, rel := range src.DataFiles {
		data, err := os.ReadFile(src.Dir + "/" + rel)
		if err != nil {
			return nil, fmt.Errorf("rdd: %w", err)
		}
		name := "input/" + rel
		if err := e.fs.Write(name, data); err != nil {
			return nil, err
		}
		inputs = append(inputs, name)
		total += int64(len(data))
		switch src.Format {
		case meterdata.FormatReadingPerLine:
			err = meterdata.ScanReadings(strings.NewReader(string(data)), func(r meterdata.Reading) error {
				consumers[r.ID] = true
				readings++
				return nil
			})
		case meterdata.FormatSeriesPerLine:
			err = meterdata.ScanSeries(strings.NewReader(string(data)), func(s *timeseries.Series) error {
				consumers[s.ID] = true
				readings += int64(len(s.Readings))
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
	}
	e.inputs = inputs
	e.format = src.Format
	e.grouped = !src.Partitioned && len(src.DataFiles) > 1
	e.temp = temp
	return &core.LoadStats{Consumers: len(consumers), Readings: readings, StorageBytes: total}, nil
}

// Release implements core.Engine.
func (e *Engine) Release() error { return nil }

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine: Run under a caller-supplied context
// governing cancellation and deadlines.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("rdd: %w", core.ErrNotLoaded)
	}
	return exec.RunContext(ctx, e, spec)
}

// NewCursor implements core.Engine. Extraction is the engine's RDD
// job: broadcast the temperature series, parse the DFS splits into one
// series per consumer (format-dependent plan — straight scan, map-side
// group, or a shuffle by household), persist the parsed RDD in
// executor memory for the duration of the job (the footprint that
// exceeds Hive's in Figure 15), and collect driver-side. Close
// unpersists the cached partitions.
func (e *Engine) NewCursor() (core.Cursor, error) {
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("rdd: %w", core.ErrNotLoaded)
	}
	var pinned *Dataset
	return core.NewLazyCursor(func(ctx context.Context) ([]*timeseries.Series, error) {
		// Job-scoped context: every modeled delay below honours the
		// run's cancellation.
		jc := e.ctx.WithContext(ctx)
		// Ship the temperature series to the executors once per job.
		jc.Broadcast(e.temp, int64(len(e.temp.Values)*8))
		ds, err := e.allSeries(jc)
		if err != nil {
			return nil, err
		}
		ds.Persist()
		pinned = ds
		records := ds.Collect()
		series := make([]*timeseries.Series, 0, len(records))
		for _, rec := range records {
			s, ok := rec.Value.(*timeseries.Series)
			if !ok {
				return nil, fmt.Errorf("rdd: expected series record, got %T", rec.Value)
			}
			series = append(series, s)
		}
		sort.Slice(series, func(i, j int) bool { return series[i].ID < series[j].ID })
		return series, nil
	}, func() {
		if pinned != nil {
			pinned.Unpersist()
			pinned = nil
		}
	}), nil
}

// sharedJob is one extraction job shared by a set of partition cursors:
// the broadcast + parse + persist runs once (paid by whichever cursor
// reaches its first Next first), each cursor then collects only its own
// range of the parsed RDD's partitions, and the last cursor to close
// unpersists.
type sharedJob struct {
	e    *Engine
	once sync.Once
	err  error
	ds   *Dataset

	mu   sync.Mutex
	open int
}

func (j *sharedJob) ensure(ctx context.Context) error {
	j.once.Do(func() {
		// The first cursor to arrive pays for (and can cancel) the
		// shared job; later cursors reuse the built dataset.
		jc := j.e.ctx.WithContext(ctx)
		jc.Broadcast(j.e.temp, int64(len(j.e.temp.Values)*8))
		ds, err := j.e.allSeries(jc)
		if err != nil {
			j.err = err
			return
		}
		ds.Persist()
		j.ds = ds
	})
	return j.err
}

func (j *sharedJob) release() {
	j.mu.Lock()
	j.open--
	last := j.open == 0
	j.mu.Unlock()
	if last && j.ds != nil {
		j.ds.Unpersist()
	}
}

// NewCursors implements core.PartitionedSource: one cursor per group of
// RDD partitions of the shared extraction job. Households are
// hash-partitioned across the RDD (or grouped per input file), so each
// cursor's ID set is disjoint from the others' but their ranges
// interleave — the pipeline's final sort by household ID restores global
// order.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("rdd: NewCursors: max must be >= 1, got %d", max)
	}
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("rdd: %w", core.ErrNotLoaded)
	}
	// Cursor count comes from split metadata (known without running the
	// job); each cursor's partition range is resolved lazily once the
	// shared job has actually built the RDD.
	splittable := e.format == meterdata.FormatSeriesPerLine || !e.grouped
	splits, err := e.fs.Splits(e.inputs, splittable)
	if err != nil {
		return nil, err
	}
	n := max
	if n > len(splits) {
		n = len(splits)
	}
	if n < 1 {
		n = 1
	}
	job := &sharedJob{e: e, open: n}
	curs := make([]core.Cursor, n)
	for p := 0; p < n; p++ {
		p := p
		curs[p] = core.NewLazyCursor(func(ctx context.Context) ([]*timeseries.Series, error) {
			if err := job.ensure(ctx); err != nil {
				return nil, err
			}
			ranges := core.PartitionRanges(job.ds.Partitions(), n)
			if p >= len(ranges) {
				return nil, nil
			}
			records := job.ds.CollectRange(ranges[p][0], ranges[p][1])
			series := make([]*timeseries.Series, 0, len(records))
			for _, rec := range records {
				s, ok := rec.Value.(*timeseries.Series)
				if !ok {
					return nil, fmt.Errorf("rdd: expected series record, got %T", rec.Value)
				}
				series = append(series, s)
			}
			sort.Slice(series, func(i, j int) bool { return series[i].ID < series[j].ID })
			return series, nil
		}, func() { job.release() })
	}
	return curs, nil
}

var _ core.PartitionedSource = (*Engine)(nil)

// Temperature implements core.Engine.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if e.temp == nil {
		return nil, fmt.Errorf("rdd: %w", core.ErrNotLoaded)
	}
	return e.temp, nil
}

// ParallelHint implements exec.ParallelHinter: the cluster's total task
// slots, so node-count sweeps keep scaling compute when the spec leaves
// Workers unset.
func (e *Engine) ParallelHint() int {
	cfg := e.fs.Cluster().Config()
	return cfg.Nodes * cfg.SlotsPerNode
}

// seriesDataset parses series-per-line inputs into a Record-per-series
// dataset.
func (e *Engine) seriesDataset(jc *Context, splittable bool) (*Dataset, error) {
	splits, err := e.fs.Splits(e.inputs, splittable)
	if err != nil {
		return nil, err
	}
	return jc.FromSplits(splits, func(split *dfs.Split, emit func(Record)) error {
		return meterdata.ScanSeries(split.Reader(), func(s *timeseries.Series) error {
			emit(Record{Key: int64(s.ID), Value: s, Bytes: int64(len(s.Readings) * 8)})
			return nil
		})
	})
}

// groupedSeriesDataset parses format-3 inputs (reading-per-line,
// household-complete files) with one non-splittable partition per file,
// assembling each file's readings map-side.
func (e *Engine) groupedSeriesDataset(jc *Context) (*Dataset, error) {
	splits, err := e.fs.Splits(e.inputs, false)
	if err != nil {
		return nil, err
	}
	tempLen := len(e.temp.Values)
	return jc.FromSplits(splits, func(split *dfs.Split, emit func(Record)) error {
		a := meterdata.NewAssembler(tempLen)
		if err := meterdata.ScanReadings(split.Reader(), a.Add); err != nil {
			return err
		}
		for _, s := range a.Series() {
			emit(Record{Key: int64(s.ID), Value: s, Bytes: int64(tempLen * 8)})
		}
		return nil
	})
}

// allSeries assembles one Record per series regardless of input
// format, running the job under jc (a Context scoped to the run via
// WithContext).
func (e *Engine) allSeries(jc *Context) (*Dataset, error) {
	switch {
	case e.format == meterdata.FormatSeriesPerLine:
		return e.seriesDataset(jc, true)
	case e.grouped:
		return e.groupedSeriesDataset(jc)
	default:
		// Format 1: parse readings, shuffle by household, assemble.
		splits, err := e.fs.Splits(e.inputs, true)
		if err != nil {
			return nil, err
		}
		readings, err := jc.FromSplits(splits, func(split *dfs.Split, emit func(Record)) error {
			return meterdata.ScanReadings(split.Reader(), func(r meterdata.Reading) error {
				emit(Record{Key: int64(r.ID), Value: [2]float64{float64(r.Hour), r.Consumption}, Bytes: 16})
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		grouped, err := readings.GroupByKey(0)
		if err != nil {
			return nil, err
		}
		tempLen := len(e.temp.Values)
		return grouped.MapPartitions(func(part []Record, _ *distsim.TaskCtx) ([]Record, error) {
			a := meterdata.NewAssembler(tempLen)
			for _, rec := range part {
				for _, v := range rec.Value.([]interface{}) {
					hv := v.([2]float64)
					r := meterdata.Reading{
						ID:          timeseries.ID(rec.Key),
						Hour:        int(hv[0]),
						Consumption: hv[1],
					}
					if err := a.Add(r); err != nil {
						return nil, fmt.Errorf("rdd: %w", err)
					}
				}
			}
			out := make([]Record, 0, a.Len())
			for _, s := range a.Series() {
				out = append(out, Record{Key: int64(s.ID), Value: s, Bytes: int64(tempLen * 8)})
			}
			return out, nil
		})
	}
}

var _ core.Engine = (*Engine)(nil)
