package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// engine is what the life cycle asks of an open store. Both the column
// store and the row store provide all of it.
type engine interface {
	core.Engine
	core.Appender
	core.PartitionedSource
	Checkpoint() error
	Crash()
}

// source is what a load reads: the series in memory for the column
// store's segment writer, a staged text directory for the row store.
type source struct {
	ds   *timeseries.Dataset
	text *meterdata.Source
}

// loadStats is what a load reports back for checking and for the
// storage metrics.
type loadStats struct {
	consumers    int
	readings     int64
	storageBytes int64
}

// openMode says how a store directory is attached.
type openMode struct {
	live bool   // the live store, not the bulk store
	wal  bool   // arm the write-ahead log, fsync policy batch
	fs   wal.FS // filesystem under the log; nil means the real one
}

// store is the part of a workload that differs between the two engines:
// how input reaches it, how a directory is loaded, opened and closed.
type store interface {
	name() string
	// stage puts ds where load reads it from. Staging is input
	// preparation, so it is set-up and not part of a load.
	stage(dir string, ds *timeseries.Dataset) (source, error)
	// load builds the store's files under dir from src and closes them.
	load(src source, dir string) (loadStats, error)
	open(dir string, mode openMode) (engine, error)
	// close ends a session cleanly, flushing what the engine buffers.
	close(e engine) error
	// cacheStats reads the block cache counters of an open engine.
	cacheStats(e engine) (hits, misses, residentBytes int64)
}

// colStore is the column store. budget > 0 makes every session over the
// bulk store paged: blocks decode on demand into a cache of that many
// bytes. The live store is always attached with its segment image in
// memory, as the hot tail of a deployment would be, so one workload
// drives both of the engine's read paths.
type colStore struct {
	budget int64
}

func (colStore) name() string { return "colstore" }

func (colStore) stage(_ string, ds *timeseries.Dataset) (source, error) {
	return source{ds: ds}, nil
}

func (colStore) load(src source, dir string) (loadStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return loadStats{}, err
	}
	path := filepath.Join(dir, colstore.SegmentFileName)
	w, err := colstore.NewSegmentWriter(path, src.ds.Temperature.Values, colstore.WithQuantize(meterDigits))
	if err != nil {
		return loadStats{}, err
	}
	for _, s := range src.ds.Series {
		if err := w.Append(s.ID, s.Readings); err != nil {
			_ = w.Close() // Append already failed the writer
			return loadStats{}, err
		}
	}
	st := loadStats{consumers: w.Consumers(), readings: w.RawBytes() / 8}
	if err := w.Close(); err != nil {
		return loadStats{}, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return loadStats{}, err
	}
	st.storageBytes = info.Size()
	return st, nil
}

func (c colStore) open(dir string, mode openMode) (engine, error) {
	var opts []colstore.Option
	if c.budget > 0 && !mode.live {
		opts = append(opts, colstore.WithMemBudget(c.budget))
	}
	if mode.wal {
		opts = append(opts, colstore.WithWAL(wal.SyncBatch))
		if mode.fs != nil {
			opts = append(opts, colstore.WithWALFS(mode.fs))
		}
	}
	e := colstore.New(dir, opts...)
	if _, err := e.OpenExisting(); err != nil {
		_ = e.Release() // the open error is the one to report
		return nil, err
	}
	return e, nil
}

func (colStore) close(e engine) error { return e.Release() }

func (colStore) cacheStats(e engine) (hits, misses, residentBytes int64) {
	return e.(*colstore.Engine).PagerStats()
}

// rowStore is the row store, loaded from reading-per-line text.
type rowStore struct{}

func (rowStore) name() string { return "rowstore" }

func (rowStore) stage(dir string, ds *timeseries.Dataset) (source, error) {
	src, err := meterdata.WriteUnpartitioned(dir, ds, meterdata.FormatReadingPerLine)
	if err != nil {
		return source{}, err
	}
	return source{ds: ds, text: src}, nil
}

func (rowStore) load(src source, dir string) (loadStats, error) {
	e := rowstore.New(dir)
	st, err := e.Load(src.text)
	if err != nil {
		_ = e.Close() // the load error is the one to report
		return loadStats{}, err
	}
	if err := e.Close(); err != nil {
		return loadStats{}, err
	}
	return loadStats{consumers: st.Consumers, readings: st.Readings, storageBytes: st.StorageBytes}, nil
}

func (rowStore) open(dir string, mode openMode) (engine, error) {
	var opts []rowstore.Option
	if mode.wal {
		opts = append(opts, rowstore.WithWAL(wal.SyncBatch))
		if mode.fs != nil {
			opts = append(opts, rowstore.WithWALFS(mode.fs))
		}
	}
	e := rowstore.New(dir, opts...)
	if err := e.Open(); err != nil {
		_ = e.Close() // the open error is the one to report
		return nil, err
	}
	return e, nil
}

func (rowStore) close(e engine) error { return e.(*rowstore.Engine).Close() }

func (rowStore) cacheStats(e engine) (hits, misses, residentBytes int64) {
	hits, misses = e.(*rowstore.Engine).PoolStats()
	return hits, misses, 0
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyDir copies the regular files directly under src into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return fmt.Errorf("copy %s: %w", ent.Name(), err)
		}
	}
	return nil
}
