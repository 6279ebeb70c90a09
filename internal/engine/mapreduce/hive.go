package mapreduce

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

// Style selects how the Hive analogue expresses a per-consumer task.
type Style int

const (
	// StyleAuto picks UDAF for reading-per-line input, UDF for
	// series-per-line input, and UDTF for grouped non-splittable files.
	StyleAuto Style = iota
	// StyleUDAF forces the shuffle-based aggregation plan.
	StyleUDAF
	// StyleUDF forces the map-only plan (requires series-per-line).
	StyleUDF
	// StyleUDTF forces the map-side-aggregation plan over non-splittable
	// files (requires each household contained in one file).
	StyleUDTF
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case StyleAuto:
		return "auto"
	case StyleUDAF:
		return "UDAF"
	case StyleUDF:
		return "UDF"
	case StyleUDTF:
		return "UDTF"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Engine is the Hive analogue: SQL-like jobs compiled to MapReduce over
// DFS external tables.
type Engine struct {
	fs    *dfs.FS
	style Style

	inputs  []string
	format  meterdata.Format
	grouped bool
	temp    *timeseries.Temperature
	// reducers overrides the reduce task count (0 = node count).
	reducers int
}

// Option configures the engine.
type Option func(*Engine)

// WithStyle forces a UDF style (default StyleAuto).
func WithStyle(s Style) Option { return func(e *Engine) { e.style = s } }

// WithReducers overrides the reduce task count (the paper's footnote 8:
// "Hive generally performed better with more MapReduce tasks up to a
// certain point").
func WithReducers(n int) Option { return func(e *Engine) { e.reducers = n } }

// New returns a Hive-analogue engine over the given DFS.
func New(fs *dfs.FS, opts ...Option) *Engine {
	e := &Engine{fs: fs}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "mapreduce (Hive analogue)" }

// Capabilities implements core.Engine (Table 1, Hive column: histogram
// built in, regression via a third-party library, the rest hand-written
// UDFs).
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Histogram:        core.SupportBuiltin,
		Quantiles:        core.SupportNone,
		Regression:       core.SupportThirdParty,
		CosineSimilarity: core.SupportNone,
	}
}

// Load implements core.Engine: it uploads the source files into DFS
// (external tables) and reads the shared temperature series driver-side.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	temp, err := meterdata.ReadTemperature(src.Dir)
	if err != nil {
		return nil, err
	}
	var inputs []string
	var total int64
	consumers := make(map[timeseries.ID]bool)
	var readings int64
	for _, rel := range src.DataFiles {
		path := src.Dir + "/" + rel
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %w", err)
		}
		name := "input/" + rel
		if err := e.fs.Write(name, data); err != nil {
			return nil, err
		}
		inputs = append(inputs, name)
		total += int64(len(data))
		// Count consumers/readings for stats.
		if err := countConsumers(data, src.Format, consumers, &readings); err != nil {
			return nil, err
		}
	}
	e.inputs = inputs
	e.format = src.Format
	e.grouped = !src.Partitioned && len(src.DataFiles) > 1
	e.temp = temp
	return &core.LoadStats{
		Consumers:    len(consumers),
		Readings:     readings,
		StorageBytes: total,
	}, nil
}

func countConsumers(data []byte, format meterdata.Format, seen map[timeseries.ID]bool, readings *int64) error {
	switch format {
	case meterdata.FormatReadingPerLine:
		return meterdata.ScanReadings(strings.NewReader(string(data)), func(r meterdata.Reading) error {
			seen[r.ID] = true
			*readings++
			return nil
		})
	case meterdata.FormatSeriesPerLine:
		return meterdata.ScanSeries(strings.NewReader(string(data)), func(s *timeseries.Series) error {
			seen[s.ID] = true
			*readings += int64(len(s.Readings))
			return nil
		})
	default:
		return fmt.Errorf("mapreduce: unknown format %v", format)
	}
}

// Release implements core.Engine. The Hive analogue holds no warm state
// beyond DFS itself.
func (e *Engine) Release() error { return nil }

// effectiveStyle resolves StyleAuto against the loaded format.
func (e *Engine) effectiveStyle() (Style, error) {
	if e.style != StyleAuto {
		return e.style, nil
	}
	switch {
	case e.format == meterdata.FormatSeriesPerLine:
		return StyleUDF, nil
	case e.grouped:
		return StyleUDTF, nil
	default:
		return StyleUDAF, nil
	}
}

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine: Run under a caller-supplied context
// governing cancellation and deadlines.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("mapreduce: %w", core.ErrNotLoaded)
	}
	return exec.RunContext(ctx, e, spec)
}

// NewCursor implements core.Engine. Extraction is the engine's
// series-assembly MapReduce job in the style resolved from the loaded
// format (§5.4.2): UDAF shuffles readings by household and assembles
// reduce-side, the generic UDF reads whole series map-only, and UDTF
// aggregates map-side over non-splittable files. The job runs once on
// first Next; every plan ships the temperature series to each node
// first, like Hive distributing a map-join table.
func (e *Engine) NewCursor() (core.Cursor, error) {
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("mapreduce: %w", core.ErrNotLoaded)
	}
	style, err := e.effectiveStyle()
	if err != nil {
		return nil, err
	}
	switch style {
	case StyleUDF:
		if e.format != meterdata.FormatSeriesPerLine {
			return nil, fmt.Errorf("mapreduce: UDF style needs series-per-line input, have %v", e.format)
		}
	case StyleUDAF, StyleUDTF:
		if e.format != meterdata.FormatReadingPerLine {
			return nil, fmt.Errorf("mapreduce: %v style needs reading-per-line input, have %v", style, e.format)
		}
	default:
		return nil, fmt.Errorf("mapreduce: unsupported style %v", style)
	}
	return core.NewLazyCursor(func(ctx context.Context) ([]*timeseries.Series, error) {
		e.broadcastTemperature(ctx)
		var values []interface{}
		var err error
		switch style {
		case StyleUDF:
			values, err = e.extractUDF(ctx, e.inputs)
		case StyleUDTF:
			values, err = e.extractUDTF(ctx, e.inputs)
		default:
			values, err = e.extractUDAF(ctx)
		}
		if err != nil {
			return nil, err
		}
		return seriesFromValues(values)
	}, nil), nil
}

// seriesFromValues converts a job's emitted values to series sorted by
// household ID.
func seriesFromValues(values []interface{}) ([]*timeseries.Series, error) {
	series := make([]*timeseries.Series, 0, len(values))
	for _, v := range values {
		s, ok := v.(*timeseries.Series)
		if !ok {
			return nil, fmt.Errorf("mapreduce: expected series value, got %T", v)
		}
		series = append(series, s)
	}
	sort.Slice(series, func(i, j int) bool { return series[i].ID < series[j].ID })
	return series, nil
}

// NewCursors implements core.PartitionedSource for the map-only plans:
// UDF and UDTF jobs have no shuffle, and every household is whole
// within one input file, so sharding the DFS file list yields disjoint
// extraction jobs that preserve data locality split by split. Each
// cursor runs its own map-only job over its shard on first Next; the
// temperature broadcast is shared and happens once. The UDAF plan
// funnels through a cluster-wide shuffle into one reduce output stream,
// so it (like single-file inputs) yields a single cursor.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("mapreduce: NewCursors: max must be >= 1, got %d", max)
	}
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("mapreduce: %w", core.ErrNotLoaded)
	}
	style, err := e.effectiveStyle()
	if err != nil {
		return nil, err
	}
	single := func() ([]core.Cursor, error) {
		cur, err := e.NewCursor()
		if err != nil {
			return nil, err
		}
		return []core.Cursor{cur}, nil
	}
	switch style {
	case StyleUDF:
		if e.format != meterdata.FormatSeriesPerLine {
			return nil, fmt.Errorf("mapreduce: UDF style needs series-per-line input, have %v", e.format)
		}
	case StyleUDTF:
		if e.format != meterdata.FormatReadingPerLine {
			return nil, fmt.Errorf("mapreduce: %v style needs reading-per-line input, have %v", style, e.format)
		}
	default:
		return single()
	}
	if len(e.inputs) < 2 {
		return single()
	}
	var bcast sync.Once
	var curs []core.Cursor
	for _, r := range core.PartitionRanges(len(e.inputs), max) {
		shard := e.inputs[r[0]:r[1]]
		curs = append(curs, core.NewLazyCursor(func(ctx context.Context) ([]*timeseries.Series, error) {
			bcast.Do(func() { e.broadcastTemperature(ctx) })
			var values []interface{}
			var err error
			if style == StyleUDF {
				values, err = e.extractUDF(ctx, shard)
			} else {
				values, err = e.extractUDTF(ctx, shard)
			}
			if err != nil {
				return nil, err
			}
			return seriesFromValues(values)
		}, nil))
	}
	return curs, nil
}

var _ core.PartitionedSource = (*Engine)(nil)

// Temperature implements core.Engine.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if e.temp == nil {
		return nil, fmt.Errorf("mapreduce: %w", core.ErrNotLoaded)
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

func (e *Engine) broadcastTemperature(ctx context.Context) {
	cluster := e.fs.Cluster()
	bytes := int64(len(e.temp.Values) * 8)
	moves := make([]distsim.Move, 0, cluster.Nodes())
	for n := 0; n < cluster.Nodes(); n++ {
		moves = append(moves, distsim.Move{From: -1, To: n, Bytes: bytes})
	}
	cluster.TransferConcurrentCtx(ctx, moves)
}

// hourValue is the UDAF intermediate value: one reading.
type hourValue struct {
	hour int
	cons float64
}

// extractUDAF is the format-1 plan: map parses rows and emits
// (household, reading); a shuffle groups readings by household; reduce
// assembles each series. The I/O-intensive shuffle is exactly why
// format 1 is slowest in Figures 13 and 16.
func (e *Engine) extractUDAF(ctx context.Context) ([]interface{}, error) {
	tempLen := len(e.temp.Values)
	job := &Job{
		FS:         e.fs,
		Inputs:     e.inputs,
		Splittable: true,
		Reducers:   e.reducers,
		Map: func(split *dfs.Split, ctx *distsim.TaskCtx, emit func(Pair) error) error {
			return meterdata.ScanReadings(split.Reader(), func(r meterdata.Reading) error {
				return emit(Pair{
					Key:   int64(r.ID),
					Value: hourValue{hour: r.Hour, cons: r.Consumption},
					Bytes: 16,
				})
			})
		},
		Reduce: func(key int64, values []interface{}, ctx *distsim.TaskCtx, emit func(interface{})) error {
			a := meterdata.NewAssembler(tempLen)
			for _, v := range values {
				hv, ok := v.(hourValue)
				if !ok {
					return fmt.Errorf("mapreduce: unexpected UDAF value %T", v)
				}
				r := meterdata.Reading{ID: timeseries.ID(key), Hour: hv.hour, Consumption: hv.cons}
				if err := a.Add(r); err != nil {
					return fmt.Errorf("mapreduce: %w", err)
				}
			}
			for _, s := range a.Series() {
				emit(s)
			}
			return nil
		},
	}
	return job.RunContext(ctx)
}

// extractUDF is the format-2 plan: map-only, one whole series per line,
// no shuffle. inputs may be a shard of the loaded file list (partition
// cursors run one job per shard).
func (e *Engine) extractUDF(ctx context.Context, inputs []string) ([]interface{}, error) {
	job := &Job{
		FS:         e.fs,
		Inputs:     inputs,
		Splittable: true,
		Map: func(split *dfs.Split, ctx *distsim.TaskCtx, emit func(Pair) error) error {
			return meterdata.ScanSeries(split.Reader(), func(s *timeseries.Series) error {
				return emit(Pair{Key: int64(s.ID), Value: s, Bytes: int64(len(s.Readings) * 8)})
			})
		},
	}
	return job.RunContext(ctx)
}

// extractUDTF is the format-3 plan: map-only over non-splittable files
// with map-side aggregation (each household is whole within one file).
// inputs may be a shard of the loaded file list.
func (e *Engine) extractUDTF(ctx context.Context, inputs []string) ([]interface{}, error) {
	tempLen := len(e.temp.Values)
	job := &Job{
		FS:         e.fs,
		Inputs:     inputs,
		Splittable: false, // the customized isSplitable()==false input format
		Map: func(split *dfs.Split, ctx *distsim.TaskCtx, emit func(Pair) error) error {
			a := meterdata.NewAssembler(tempLen)
			if err := meterdata.ScanReadings(split.Reader(), a.Add); err != nil {
				return err
			}
			for _, s := range a.Series() {
				if err := emit(Pair{Key: int64(s.ID), Value: s, Bytes: int64(tempLen * 8)}); err != nil {
					return err
				}
			}
			return nil
		},
	}
	return job.RunContext(ctx)
}

var _ core.Engine = (*Engine)(nil)
