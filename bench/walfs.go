package main

import (
	"sync"
	"sync/atomic"

	"github.com/smartmeter/smartbench/internal/wal"
)

// countingFS wraps the filesystem under the write-ahead log. It counts
// what the log asks of the disk and records a span per fsync, so the
// traced run can say how many fsyncs a thousand readings cost and how
// much of an Append they cover. Writes are only counted: finding the
// parent of a span costs several microseconds this deep in a call
// stack, a fifth of what one buffered write takes. Only traced runs
// install it.
type countingFS struct {
	inner wal.FS
	tr    *tracer

	fsyncs   atomic.Int64
	writes   atomic.Int64
	bytes    atomic.Int64
	dirSyncs atomic.Int64

	mu       sync.Mutex
	fsyncSec []float64
}

func newCountingFS(inner wal.FS, tr *tracer) *countingFS {
	return &countingFS{inner: inner, tr: tr}
}

func (c *countingFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *countingFS) OpenAppend(path string) (wal.File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Create(path string) (wal.File, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldPath, newPath string) error { return c.inner.Rename(oldPath, newPath) }

func (c *countingFS) Remove(path string) error { return c.inner.Remove(path) }

func (c *countingFS) SyncDir(dir string) error {
	c.dirSyncs.Add(1)
	sp := c.tr.begin("wal.fs.syncdir")
	err := c.inner.SyncDir(dir)
	sp.end()
	return err
}

// fsyncSeconds returns a copy of every fsync's duration.
func (c *countingFS) fsyncSeconds() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.fsyncSec...)
}

// countingFile passes everything but Write and Sync straight through.
type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	sp := f.fs.tr.begin("wal.fs.sync")
	err := f.File.Sync()
	d := sp.end()
	f.fs.fsyncs.Add(1)
	f.fs.mu.Lock()
	f.fs.fsyncSec = append(f.fs.fsyncSec, d.Seconds())
	f.fs.mu.Unlock()
	return err
}
