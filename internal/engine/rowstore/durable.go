package rowstore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Crash-safe ingestion for the row store. The engine pairs a no-steal
// buffer pool with a single-shard write-ahead log (internal/wal): the
// table file on disk only ever holds the last checkpoint, every acked
// Append is framed into the log first, and recovery is "open the
// checkpointed file, replay the log through the idempotent append
// path". A checkpoint is a copy-on-write rewrite — stream every page
// (dirty frames from the pool, the rest from the file) into a temp
// file, fsync, rename over the table, fsync the directory, then
// truncate the log — so a crash at any point leaves either the old
// file with its full log or the new file with an empty one, never a
// torn mix.

// walDir is where the engine's write-ahead log lives.
func (e *Engine) walDir() string { return filepath.Join(e.dir, "wal") }

// Checkpoint folds every page dirtied since the last checkpoint into
// the table file with an atomic rewrite and truncates the write-ahead
// log. Safe to call concurrently with Append, Snapshot and any cursor:
// it holds the table latch exclusively.
func (e *Engine) Checkpoint() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	// ensureLive replays any unreplayed log before we truncate it.
	if _, err := e.ensureLive(); err != nil {
		return err
	}
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint under readMu. The caller must have
// replayed the write-ahead log (ensureLive) if one exists on disk.
func (e *Engine) checkpointLocked() error {
	tb := e.table
	// The meta page must describe the state being checkpointed; Append
	// rewrites it per batch but replayed batches do not.
	if err := writeMeta(e.bp, tb.meta()); err != nil {
		return err
	}
	path := filepath.Join(e.dir, TableFileName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("rowstore: checkpoint: %w", err)
	}
	fail := func(err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	// The rewrite is sequential, so it goes out runPages pages a write,
	// as flush writes a run.
	w := bufio.NewWriterSize(f, runPages*PageSize)
	var buf [PageSize]byte
	for id := PageID(0); id < e.pf.nPages; id++ {
		src := buf[:]
		if fr, ok := e.bp.frames[id]; ok {
			src = fr.data[:]
		} else if err := e.pf.read(id, buf[:]); err != nil {
			return fail(err)
		}
		if _, err := w.Write(src); err != nil {
			return fail(fmt.Errorf("rowstore: checkpoint write page %d: %w", id, err))
		}
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("rowstore: checkpoint write: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("rowstore: checkpoint sync: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rowstore: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rowstore: checkpoint rename: %w", err)
	}
	if err := wal.OSFS.SyncDir(e.dir); err != nil {
		return fmt.Errorf("rowstore: sync dir: %w", err)
	}
	// Swap the file handle under the pool; cached frames keep their
	// page IDs (the rewrite preserved every offset) and are now clean.
	npf, err := openPagedFile(path)
	if err != nil {
		return err
	}
	old := e.pf
	e.pf = npf
	e.bp.pf = npf
	for _, fr := range e.bp.frames {
		fr.dirty = false
	}
	if err := old.close(); err != nil {
		return err
	}
	// The checkpoint covers everything the log held.
	if e.wlog != nil {
		if err := e.wlog.Rewrite(0, nil); err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
	}
	return nil
}

// Crash simulates a process death for recovery tests: every file
// handle drops with no flush, sync or checkpoint. The engine object is
// dead afterwards — recovery happens by opening a fresh engine over
// the same directory.
func (e *Engine) Crash() {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.wlog != nil {
		e.wlog.Drop()
		e.wlog = nil
	}
	if e.pf != nil {
		_ = e.pf.close()
	}
	e.pf, e.bp, e.table = nil, nil, nil
	e.temp.Store(nil)
	e.live = nil
}
