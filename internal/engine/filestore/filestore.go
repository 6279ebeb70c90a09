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
//
// Warm start (Figure 6, Matlab's matrices loaded before the timed
// algorithm) is exec.Warm's, as on every engine: the cursors drained
// once into one packed dataset in memory.
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

// Release implements core.Engine. The engine holds nothing between
// runs.
func (e *Engine) Release() error { return nil }

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

// NewCursors implements core.PartitionedSource. Partitions mirror the
// engine's native extraction paths: contiguous shards of the
// per-consumer file list for a partitioned source, read one consumer file at a time (the
// list is in ascending household order by construction), and
// consumer-ID ranges of the shared big-file index for an unpartitioned
// reading-per-line source (§5.3.1). An unpartitioned series-per-line
// source is one sequential read of the file, so it yields a single
// cursor.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("filestore: NewCursors: max must be >= 1, got %d", max)
	}
	if e.src == nil {
		return nil, fmt.Errorf("filestore: %w", core.ErrNotLoaded)
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
	src := e.src
	return []core.Cursor{core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
		ds, err := meterdata.ReadDataset(src)
		if err != nil {
			return nil, fmt.Errorf("filestore: %w", err)
		}
		return ds.Series, nil
	}, nil)}, nil
}

// Temperature implements core.Engine.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
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

// Source returns the engine's current data source (nil before Load).
func (e *Engine) Source() *meterdata.Source { return e.src }
