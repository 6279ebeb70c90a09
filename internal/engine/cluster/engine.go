// Package cluster is the benchmark's Spark and Hive analogues (§5.4–5.5,
// Figures 11–19): one engine over the simulated cluster (distsim) and
// its HDFS analogue (dfs), run under one of two profiles.
//
// Extraction is one job whose plan follows the loaded data format
// (§5.4.2):
//
//   - format 1 (one reading per line): scan the splits into readings,
//     shuffle them by household, assemble each series on the reduce side
//     (Hive's UDAF, Spark's group-by). The shuffle is why format 1 is the
//     slow format of Figures 13 and 16.
//   - format 2 (one series per line): scan only (Hive's generic UDF).
//   - format 3 (whole households in many files): scan non-splittable
//     files and assemble map-side (Hive's UDTF, the customized
//     isSplitable()==false input format); no shuffle either.
//
// The profiles are plain data, and hold only what the paper says
// distinguishes the two platforms; every cost they imply is charged by
// distsim. The analytics themselves run in the shared pipeline
// (internal/exec) over the engine's cursors, the same for both.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// profile is what distinguishes one platform from the other.
type profile struct {
	name string
	// caps is the platform's column of Table 1.
	caps core.Capabilities
	// dispatch is the driver's cost of launching one task, paid serially
	// per stage: negligible for block-sized inputs, dominant when the
	// input is thousands of tiny non-splittable files (Figure 18).
	dispatch time.Duration
	// resident keeps every stage's output in executor memory until the
	// job's cursors close, the cached datasets behind Spark's larger
	// footprint in Figure 15; otherwise output is freed as soon as the
	// next stage or the driver has consumed it.
	resident bool
}

var (
	// Spark: regression via Apache Math; histogram, quantiles and
	// similarity hand-written.
	sparkProfile = profile{
		name: "rdd (Spark analogue)",
		caps: core.Capabilities{
			Histogram:        core.SupportNone,
			Quantiles:        core.SupportNone,
			Regression:       core.SupportThirdParty,
			CosineSimilarity: core.SupportNone,
		},
		dispatch: 200 * time.Microsecond,
		resident: true,
	}
	// Hive: histogram built in, regression via a third-party library,
	// the rest hand-written UDFs.
	hiveProfile = profile{
		name: "mapreduce (Hive analogue)",
		caps: core.Capabilities{
			Histogram:        core.SupportBuiltin,
			Quantiles:        core.SupportNone,
			Regression:       core.SupportThirdParty,
			CosineSimilarity: core.SupportNone,
		},
	}
)

// Engine is a cluster engine under one profile.
type Engine struct {
	fs   *dfs.FS
	prof profile
	// reduceTasks is the shuffle's partition count; 0 means one per node.
	reduceTasks int
	// forceShuffle runs the shuffle plan over household-complete files.
	forceShuffle bool

	inputs  []string
	format  meterdata.Format
	grouped bool // several files, each holding whole households
	temp    *timeseries.Temperature
}

// NewSpark returns the Spark analogue over the given DFS.
func NewSpark(fs *dfs.FS) *Engine { return &Engine{fs: fs, prof: sparkProfile} }

// NewHive returns the Hive analogue over the given DFS. reduceTasks sets
// the shuffle's reduce-task count (0: one per node; the paper's footnote
// 8: "Hive generally performed better with more MapReduce tasks up to a
// certain point"). forceShuffle makes the engine run the shuffle plan
// (UDAF) over format 3's grouped files instead of assembling map-side
// (UDTF), the comparison of Figure 18; it is refused over
// series-per-line input, which has no readings to shuffle.
func NewHive(fs *dfs.FS, reduceTasks int, forceShuffle bool) *Engine {
	return &Engine{fs: fs, prof: hiveProfile, reduceTasks: reduceTasks, forceShuffle: forceShuffle}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return e.prof.name }

// Capabilities implements core.Engine (Table 1).
func (e *Engine) Capabilities() core.Capabilities { return e.prof.caps }

// Load implements core.Engine: upload the source files into DFS
// (Hive's external tables) and read the shared temperature series
// driver-side.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	temp, err := meterdata.ReadTemperature(src.Dir)
	if err != nil {
		return nil, err
	}
	var inputs []string
	st := &core.LoadStats{}
	consumers := make(map[timeseries.ID]bool)
	for _, rel := range src.DataFiles {
		data, err := os.ReadFile(filepath.Join(src.Dir, rel))
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		name := "input/" + rel
		if err := e.fs.Write(name, data); err != nil {
			return nil, err
		}
		inputs = append(inputs, name)
		st.StorageBytes += int64(len(data))
		switch src.Format {
		case meterdata.FormatReadingPerLine:
			err = meterdata.ScanReadings(bytes.NewReader(data), func(r meterdata.Reading) error {
				consumers[r.ID] = true
				st.Readings++
				return nil
			})
		case meterdata.FormatSeriesPerLine:
			err = meterdata.ScanSeries(bytes.NewReader(data), func(s *timeseries.Series) error {
				consumers[s.ID] = true
				st.Readings += int64(len(s.Readings))
				return nil
			})
		default:
			err = fmt.Errorf("cluster: unknown format %v", src.Format)
		}
		if err != nil {
			return nil, err
		}
	}
	st.Consumers = len(consumers)
	e.inputs = inputs
	e.format = src.Format
	e.grouped = !src.Partitioned && len(src.DataFiles) > 1
	e.temp = temp
	return st, nil
}

// Release implements core.Engine. The engine holds no warm state beyond
// DFS itself.
func (e *Engine) Release() error { return nil }

// Temperature implements core.Engine.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if e.temp == nil {
		return nil, fmt.Errorf("cluster: %w", core.ErrNotLoaded)
	}
	return e.temp, nil
}

// Run implements core.Engine.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine by handing the engine's cursors to
// the shared execution layer, which runs each as a partition.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("cluster: %w", core.ErrNotLoaded)
	}
	spec.Workers = e.workers(spec.Workers)
	return exec.RunContext(ctx, e, spec)
}

// workers is the worker count a run uses: a spec that leaves Workers
// unset gets the cluster's total task slots; an explicit count always
// wins. The run asks NewCursors for that many partitions and gets at
// most one per result partition (reduce task or split), and shares its
// workers' kernel slots out among them, so compute in the node sweeps
// of Figures 14, 17 and 19 scales with the slots, not the partitions.
func (e *Engine) workers(requested int) int {
	if requested > 0 {
		return requested
	}
	cfg := e.fs.Cluster().Config()
	return cfg.Nodes * cfg.SlotsPerNode
}

// plan is the stage sequence an extraction job runs.
type plan int

const (
	planScanSeries plan = iota // format 2: scan
	planMapSide                // format 3: scan whole files, assemble in the task
	planShuffle                // format 1: scan, shuffle by household, assemble
)

// plan picks the job's stages from the loaded format.
func (e *Engine) plan() (plan, error) {
	switch {
	case e.format == meterdata.FormatSeriesPerLine:
		if e.forceShuffle {
			return 0, fmt.Errorf("cluster: the forced shuffle plan needs reading-per-line input, have %v", e.format)
		}
		return planScanSeries, nil
	case e.grouped && !e.forceShuffle:
		return planMapSide, nil
	default:
		return planShuffle, nil
	}
}

// parseSeries is the scan of series-per-line text.
func parseSeries(r io.Reader, out *partition) error {
	return meterdata.ScanSeries(r, func(s *timeseries.Series) error {
		out.addSeries(s)
		return nil
	})
}

// parseReadings is the scan of reading-per-line text ahead of a shuffle.
func parseReadings(r io.Reader, out *partition) error {
	return meterdata.ScanReadings(r, func(rd meterdata.Reading) error {
		out.addReading(rd)
		return nil
	})
}

// extract runs the plan's stages and returns the partitions of assembled
// series the job's cursors divide between them.
func (e *Engine) extract(ctx context.Context, j *job, pl plan, splits []dfs.Split) ([]*partition, error) {
	// Ship the temperature series to every node once per job.
	j.broadcast(ctx, int64(len(e.temp.Values))*valueBytes)
	// Readings are assembled into one series per household, aligned to
	// the temperature year, in ascending ID order.
	tempLen := len(e.temp.Values)
	assembled := func(a *meterdata.Assembler, out *partition) {
		for _, s := range a.Series() {
			out.addSeries(s)
		}
	}
	switch pl {
	case planScanSeries:
		return j.scan(ctx, splits, parseSeries)
	case planMapSide:
		return j.scan(ctx, splits, func(r io.Reader, out *partition) error {
			a := meterdata.NewAssembler(tempLen)
			if err := meterdata.ScanReadings(r, a.Add); err != nil {
				return err
			}
			assembled(a, out)
			return nil
		})
	default:
		readings, err := j.scan(ctx, splits, parseReadings)
		if err != nil {
			return nil, err
		}
		return j.shuffle(ctx, readings, e.reduceTasks, func(readings []meterdata.Reading, out *partition) error {
			a := meterdata.NewAssembler(tempLen)
			for _, rd := range readings {
				if err := a.Add(rd); err != nil {
					return fmt.Errorf("cluster: %w", err)
				}
			}
			assembled(a, out)
			return nil
		})
	}
}

// extraction is one job shared by the cursors NewCursors returned
// together: its stages run once, paid for (and cancellable) by whichever
// cursor reaches its first Next first; each cursor then collects only
// its own range of the result partitions; the last cursor to close
// closes the job, which frees everything it still accounts.
type extraction struct {
	job  job
	once sync.Once
	run  func(ctx context.Context) ([]*partition, error)

	parts []*partition
	err   error

	open atomic.Int32 // cursors not yet closed
}

func (x *extraction) result(ctx context.Context) ([]*partition, error) {
	x.once.Do(func() { x.parts, x.err = x.run(ctx) })
	return x.parts, x.err
}

func (x *extraction) release() {
	if x.open.Add(-1) == 0 {
		x.job.close()
	}
}

// NewCursors implements core.PartitionedSource: up to max cursors over
// one shared extraction job, each owning a contiguous range of its
// result partitions. Households are hash-partitioned by the shuffle, or
// grouped per input split, so the cursors' ID sets are disjoint but
// their ranges interleave; the execution layer sorts the joined results
// by household ID once, which restores global order. It refuses a
// forced plan over the wrong format.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("cluster: NewCursors: max must be >= 1, got %d", max)
	}
	if len(e.inputs) == 0 {
		return nil, fmt.Errorf("cluster: %w", core.ErrNotLoaded)
	}
	pl, err := e.plan()
	if err != nil {
		return nil, err
	}
	splits, err := e.fs.Splits(e.inputs, pl != planMapSide)
	if err != nil {
		return nil, err
	}
	// The result partition count is known before the job runs: one per
	// reduce task after a shuffle, one per split otherwise.
	parts := len(splits)
	if pl == planShuffle {
		if parts = e.reduceTasks; parts <= 0 {
			parts = e.fs.Cluster().Nodes()
		}
	}
	ranges := core.PartitionRanges(parts, max)
	x := &extraction{}
	x.job.cluster, x.job.prof = e.fs.Cluster(), e.prof
	x.open.Store(int32(len(ranges)))
	x.run = func(ctx context.Context) ([]*partition, error) {
		return e.extract(ctx, &x.job, pl, splits)
	}
	curs := make([]core.Cursor, len(ranges))
	for i, r := range ranges {
		curs[i] = core.NewLazyCursor(func(ctx context.Context) ([]*timeseries.Series, error) {
			parts, err := x.result(ctx)
			if err != nil {
				return nil, err
			}
			series := x.job.collect(ctx, parts[r[0]:r[1]])
			sort.Slice(series, func(a, b int) bool { return series[a].ID < series[b].ID })
			return series, nil
		}, x.release)
	}
	return curs, nil
}

var _ core.Engine = (*Engine)(nil)
