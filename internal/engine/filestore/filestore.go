// Package filestore implements the benchmark's Matlab analogue: a
// numeric-computing engine that works directly from text files with no
// database storage layer.
//
// It reproduces the traits the paper measures for Matlab:
//
//   - "Load" does not ingest anything; at most it splits an unpartitioned
//     file into one file per consumer, which is exactly the ~4.5 minute
//     Matlab bar in Figure 4 (§5.3.1).
//   - Analytics on a partitioned source stream one consumer file at a
//     time, while an unpartitioned source must first be read whole into
//     an in-memory index before consumers can be extracted — the paper's
//     explanation for Figure 5's partitioning gap.
//   - An explicit Warm step materializes everything into memory arrays,
//     separating cold-start from warm-start runs (Figure 6).
//
// All four statistical operators come "built in" (the shared analytics
// libraries), matching Table 1's Matlab column except cosine similarity,
// which Matlab lacked and the paper hand-wrote — as we do via the
// similarity package's simple loop.
package filestore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Engine is the Matlab analogue. The zero value is not usable; call New.
type Engine struct {
	// splitDir receives per-consumer files when Load splits an
	// unpartitioned source.
	splitDir string
	src      *meterdata.Source
	cache    *timeseries.Dataset
}

// Option configures the engine.
type Option func(*Engine)

// WithSplitDir sets the scratch directory used when Load must split an
// unpartitioned file into per-consumer files. Defaults to a sibling
// "<dir>-split" of the source directory.
func WithSplitDir(dir string) Option {
	return func(e *Engine) { e.splitDir = dir }
}

// New returns a file-based engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "filestore (Matlab analogue)" }

// Capabilities implements core.Engine (Table 1, Matlab column).
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Histogram:        core.SupportBuiltin,
		Quantiles:        core.SupportBuiltin,
		Regression:       core.SupportBuiltin,
		CosineSimilarity: core.SupportNone,
	}
}

// Load implements core.Engine. The engine reads from raw files, so Load
// only records the source — except for an unpartitioned source, which it
// splits into one file per consumer (the preparation step the paper
// timed for Matlab in Figure 4).
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	e.cache = nil
	if src.Partitioned {
		e.src = src
		return e.countStats(src)
	}
	// Split into per-consumer files.
	dir := e.splitDir
	if dir == "" {
		dir = src.Dir + "-split"
	}
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		return nil, fmt.Errorf("filestore: split: %w", err)
	}
	split, err := meterdata.WritePartitioned(dir, ds, meterdata.FormatReadingPerLine)
	if err != nil {
		return nil, fmt.Errorf("filestore: split: %w", err)
	}
	e.src = split
	var readings int64
	for _, s := range ds.Series {
		readings += int64(len(s.Readings))
	}
	return &core.LoadStats{Consumers: len(ds.Series), Readings: readings}, nil
}

// LoadDirect records the source without splitting, for experiments that
// compare partitioned against unpartitioned access (Figure 5).
func (e *Engine) LoadDirect(src *meterdata.Source) (*core.LoadStats, error) {
	e.cache = nil
	e.src = src
	return e.countStats(src)
}

func (e *Engine) countStats(src *meterdata.Source) (*core.LoadStats, error) {
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	var readings int64
	for _, s := range ds.Series {
		readings += int64(len(s.Readings))
	}
	return &core.LoadStats{Consumers: len(ds.Series), Readings: readings}, nil
}

// Warm reads all data into in-memory arrays, like loading Matlab
// matrices before timing an algorithm (Figure 6's warm start).
func (e *Engine) Warm() error {
	if e.src == nil {
		return fmt.Errorf("filestore: %w", core.ErrNotLoaded)
	}
	ds, err := meterdata.ReadDataset(e.src)
	if err != nil {
		return fmt.Errorf("filestore: warm: %w", err)
	}
	e.cache = ds
	return nil
}

// Release implements core.Engine.
func (e *Engine) Release() error {
	e.cache = nil
	return nil
}

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine: Run under a caller-supplied context
// governing cancellation and deadlines.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	if e.src == nil {
		return nil, fmt.Errorf("filestore: %w", core.ErrNotLoaded)
	}
	return exec.RunContext(ctx, e, spec)
}

// NewCursor implements core.Engine. The cursor is the engine's native
// extraction path: in-memory arrays after Warm, one consumer file at a
// time for a partitioned source, and the paper's big-file index scan
// for an unpartitioned reading-per-line source (§5.3.1).
func (e *Engine) NewCursor() (core.Cursor, error) {
	if e.src == nil {
		return nil, fmt.Errorf("filestore: %w", core.ErrNotLoaded)
	}
	if e.cache != nil {
		return core.NewDatasetCursor(e.cache), nil
	}
	if e.src.Partitioned {
		return newFileCursor(e.src), nil
	}
	if e.src.Format == meterdata.FormatReadingPerLine {
		return newIndexCursor(e.src), nil
	}
	// Unpartitioned series-per-line: one sequential read of the file.
	src := e.src
	return core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
		ds, err := meterdata.ReadDataset(src)
		if err != nil {
			return nil, fmt.Errorf("filestore: %w", err)
		}
		return ds.Series, nil
	}, nil), nil
}

// NewCursors implements core.PartitionedSource. Partitions mirror the
// engine's native extraction paths: range shards of the in-memory
// arrays after Warm, contiguous shards of the per-consumer file list
// for a partitioned source (the list is in ascending household order by
// construction), and consumer-ID ranges of the shared big-file index
// for an unpartitioned reading-per-line source. An unpartitioned
// series-per-line source is one sequential read, so it yields a single
// cursor.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("filestore: NewCursors: max must be >= 1, got %d", max)
	}
	if e.src == nil {
		return nil, fmt.Errorf("filestore: %w", core.ErrNotLoaded)
	}
	if e.cache != nil {
		series := e.cache.Series
		curs := make([]core.Cursor, 0, max)
		for _, r := range core.PartitionRanges(len(series), max) {
			part := series[r[0]:r[1]]
			curs = append(curs, core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
				return part, nil
			}, nil))
		}
		return curs, nil
	}
	if e.src.Partitioned {
		paths := e.src.Paths()
		curs := make([]core.Cursor, 0, max)
		for _, r := range core.PartitionRanges(len(paths), max) {
			curs = append(curs, newFileCursorPaths(e.src, paths[r[0]:r[1]]))
		}
		return curs, nil
	}
	if e.src.Format == meterdata.FormatReadingPerLine {
		idx := &sharedIndex{src: e.src, open: max}
		curs := make([]core.Cursor, max)
		for p := range curs {
			curs[p] = &indexPartCursor{idx: idx, part: p, parts: max}
		}
		return curs, nil
	}
	cur, err := e.NewCursor()
	if err != nil {
		return nil, err
	}
	return []core.Cursor{cur}, nil
}

var _ core.PartitionedSource = (*Engine)(nil)

// Temperature implements core.Engine.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	if e.cache != nil {
		return e.cache.Temperature, nil
	}
	if e.src == nil {
		return nil, fmt.Errorf("filestore: %w", core.ErrNotLoaded)
	}
	temp, err := meterdata.ReadTemperature(e.src.Dir)
	if err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	return temp, nil
}

// CleanSplitDir removes the scratch directory created by Load for an
// unpartitioned source, if any.
func (e *Engine) CleanSplitDir() error {
	if e.splitDir == "" {
		return nil
	}
	if filepath.Clean(e.splitDir) == "/" {
		return fmt.Errorf("filestore: refusing to remove %q", e.splitDir)
	}
	return os.RemoveAll(e.splitDir)
}

var _ core.Engine = (*Engine)(nil)

// AppendDelta implements core.DeltaAppender by extending the underlying
// CSV files (cheap row appends for reading-per-line files, a rewrite for
// series-per-line files).
func (e *Engine) AppendDelta(delta *timeseries.Dataset) error {
	if e.src == nil {
		return fmt.Errorf("filestore: %w", core.ErrNotLoaded)
	}
	temp, err := meterdata.ReadTemperature(e.src.Dir)
	if err != nil {
		return err
	}
	if err := meterdata.AppendToSource(e.src, delta, len(temp.Values)); err != nil {
		return err
	}
	e.cache = nil
	return nil
}

var _ core.DeltaAppender = (*Engine)(nil)

// Source returns the engine's current data source (nil before Load).
func (e *Engine) Source() *meterdata.Source { return e.src }
