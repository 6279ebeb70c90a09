package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// mkBatch builds a deterministic batch for household id starting at
// hour h.
func mkBatch(id timeseries.ID, h, n int) []core.Reading {
	batch := make([]core.Reading, n)
	for i := range batch {
		hour := h + i
		batch[i] = core.Reading{
			ID:          id,
			Hour:        hour,
			Consumption: float64(id)*1000 + float64(hour)*0.25,
			Temperature: 10 + float64(hour)*0.125,
		}
	}
	return batch
}

func sameReadings(t *testing.T, got, want []core.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Hour != w.Hour ||
			math.Float64bits(g.Consumption) != math.Float64bits(w.Consumption) ||
			math.Float64bits(g.Temperature) != math.Float64bits(w.Temperature) {
			t.Fatalf("reading %d: got %+v, want %+v", i, g, w)
		}
	}
}

// collect replays a log into a per-shard slice of batches.
func collect(t *testing.T, l *Log, shards int) [][][]core.Reading {
	t.Helper()
	out := make([][][]core.Reading, shards)
	if err := l.Replay(func(shard int, batch []core.Reading) error {
		out[shard] = append(out[shard], batch)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 3, Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var want [3][][]core.Reading
	for i := 0; i < 6; i++ {
		shard := i % 3
		b := mkBatch(timeseries.ID(shard+1), (i/3)*4, 4)
		seq, err := l.Append(shard, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(shard, seq); err != nil {
			t.Fatal(err)
		}
		want[shard] = append(want[shard], b)
	}
	if l.SizeBytes() <= 3*int64(len(magic)) {
		t.Fatalf("SizeBytes = %d, want > magic only", l.SizeBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	st := r.Stats()
	if st.Batches != 6 || st.Readings != 24 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v, want 6 batches / 24 readings / 0 truncated", st)
	}
	got := collect(t, r, 3)
	for shard := range want {
		if len(got[shard]) != len(want[shard]) {
			t.Fatalf("shard %d: got %d batches, want %d", shard, len(got[shard]), len(want[shard]))
		}
		for i := range want[shard] {
			sameReadings(t, got[shard][i], want[shard][i])
		}
	}
	// Replay is one-shot.
	again := collect(t, r, 3)
	for shard := range again {
		if len(again[shard]) != 0 {
			t.Fatalf("second replay returned %d batches on shard %d", len(again[shard]), shard)
		}
	}
}

// TestTornTailTruncated cuts a log file mid-record and checks the torn
// record is CRC-rejected and truncated while the intact prefix
// survives.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b0 := mkBatch(1, 0, 5)
	b1 := mkBatch(1, 5, 5)
	for _, b := range [][]core.Reading{b0, b1} {
		seq, err := l.Append(0, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(0, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, shardFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the second record: drop its last 3 bytes.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Batches != 1 || st.Readings != 5 {
		t.Fatalf("stats = %+v, want exactly the first batch recovered", st)
	}
	if st.TruncatedBytes <= 0 {
		t.Fatalf("TruncatedBytes = %d, want > 0", st.TruncatedBytes)
	}
	got := collect(t, r, 1)
	sameReadings(t, got[0][0], b0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn tail must be gone from disk: a third open sees a clean
	// one-record log.
	r2, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.TruncatedBytes != 0 || st.Batches != 1 {
		t.Fatalf("after truncation, stats = %+v, want clean 1-batch log", st)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRecordTruncated flips a payload byte mid-file: the CRC
// must reject that record and everything after it, never decoding
// either.
func TestCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		if _, err := l.Append(0, mkBatch(1, i*4, 4)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, l.SizeBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, shardFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the second record's payload.
	data[sizes[0]+recHdrSize+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Batches != 1 {
		t.Fatalf("recovered %d batches, want 1 (corruption must cut record 2 and 3)", st.Batches)
	}
	wantCut := sizes[2] - sizes[0]
	if st.TruncatedBytes != wantCut {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, wantCut)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBadMagicResets replaces the magic: the whole file is garbage and
// must be reset without decoding anything.
func TestBadMagicResets(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, mkBatch(1, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shardFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Batches != 0 || st.TruncatedBytes != int64(len(data)) {
		t.Fatalf("stats = %+v, want 0 batches and the whole file truncated", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommit drives concurrent writers through SyncBatch on a
// sync-counting file: every commit must be covered, and leader-based
// grouping must issue fewer fsyncs than batches.
func TestGroupCommit(t *testing.T) {
	fs := &countingFS{inner: OSFS}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 1, Policy: SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := l.Append(0, mkBatch(timeseries.ID(w+1), i, 1))
				if err != nil {
					errs <- err
					return
				}
				if err := l.Commit(0, seq); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	syncs := fs.syncs.Load()
	if syncs == 0 {
		t.Fatal("no fsyncs issued under SyncBatch")
	}
	if syncs > writers*perWriter {
		t.Fatalf("%d fsyncs for %d batches: group commit is not grouping", syncs, writers*perWriter)
	}
	t.Logf("group commit: %d batches, %d fsyncs", writers*perWriter, syncs)

	r, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Batches != writers*perWriter {
		t.Fatalf("recovered %d batches, want %d", st.Batches, writers*perWriter)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRewrite replaces a shard's log and checks only the new batches
// replay afterwards.
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(0, mkBatch(1, i*2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	remainder := mkBatch(1, 6, 2)
	if err := l.Rewrite(0, [][]core.Reading{remainder, nil}); err != nil {
		t.Fatal(err)
	}
	// The shard keeps accepting appends after a rewrite.
	seq, err := l.Append(0, mkBatch(1, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(0, seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r, 2)
	if len(got[0]) != 2 {
		t.Fatalf("shard 0: got %d batches after rewrite, want 2", len(got[0]))
	}
	sameReadings(t, got[0][0], remainder)
	sameReadings(t, got[0][1], mkBatch(1, 8, 1))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingFS wraps another FS and counts Sync calls on the files it
// opens.
type countingFS struct {
	inner FS
	syncs atomic.Int64
}

func (c *countingFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *countingFS) OpenAppend(path string) (File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, syncs: &c.syncs}, nil
}

func (c *countingFS) Create(path string) (File, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, syncs: &c.syncs}, nil
}

func (c *countingFS) Rename(oldPath, newPath string) error { return c.inner.Rename(oldPath, newPath) }
func (c *countingFS) Remove(path string) error             { return c.inner.Remove(path) }
func (c *countingFS) SyncDir(dir string) error             { return c.inner.SyncDir(dir) }

type countingFile struct {
	File
	syncs *atomic.Int64
}

func (c *countingFile) Sync() error {
	c.syncs.Add(1)
	return c.File.Sync()
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"off", SyncOff}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		back, err := ParsePolicy(got.String())
		if err != nil || back != tc.want {
			t.Fatalf("round trip of %q failed", tc.in)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// tearingFS wraps another FS; while tear is set, a file's Write writes
// the first half of its bytes and fails (a short write), and while
// failTruncate is set, Truncate fails too.
type tearingFS struct {
	inner        FS
	tear         atomic.Bool
	failTruncate atomic.Bool
}

func (c *tearingFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *tearingFS) OpenAppend(path string) (File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tearingFile{File: f, fs: c}, nil
}

func (c *tearingFS) Create(path string) (File, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &tearingFile{File: f, fs: c}, nil
}

func (c *tearingFS) Rename(oldPath, newPath string) error { return c.inner.Rename(oldPath, newPath) }
func (c *tearingFS) Remove(path string) error             { return c.inner.Remove(path) }
func (c *tearingFS) SyncDir(dir string) error             { return c.inner.SyncDir(dir) }

type tearingFile struct {
	File
	fs *tearingFS
}

var errInjected = errors.New("injected write failure")

func (c *tearingFile) Write(p []byte) (int, error) {
	if !c.fs.tear.Load() {
		return c.File.Write(p)
	}
	n, err := c.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, errInjected
}

func (c *tearingFile) Truncate(size int64) error {
	if c.fs.failTruncate.Load() {
		return errInjected
	}
	return c.File.Truncate(size)
}

// appendCommit appends and commits one batch on shard 0.
func appendCommit(l *Log, batch []core.Reading) error {
	seq, err := l.Append(0, batch)
	if err != nil {
		return err
	}
	return l.Commit(0, seq)
}

// TestShortWriteKeepsLaterBatches: a write that fails after writing half
// its record must not take the batches acked after it down with it. The
// torn record is cut away, so a reopen replays every acked batch and
// truncates nothing.
func TestShortWriteKeepsLaterBatches(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncBatch, SyncAlways, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := &tearingFS{inner: OSFS}
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Shards: 1, Policy: policy, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			acked := [][]core.Reading{mkBatch(1, 0, 10)}
			if err := appendCommit(l, acked[0]); err != nil {
				t.Fatal(err)
			}
			fs.tear.Store(true)
			if err := appendCommit(l, mkBatch(1, 10, 10)); !errors.Is(err, errInjected) {
				t.Fatalf("torn write: Append returned %v, want the write's error", err)
			}
			fs.tear.Store(false)
			for _, b := range [][]core.Reading{mkBatch(1, 10, 10), mkBatch(2, 0, 3)} {
				if err := appendCommit(l, b); err != nil {
					t.Fatalf("append after a torn write: %v", err)
				}
				acked = append(acked, b)
			}
			l.Drop()

			r, err := Open(Options{Dir: dir, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if st := r.Stats(); st.TruncatedBytes != 0 {
				t.Errorf("reopen truncated %d bytes, want 0", st.TruncatedBytes)
			}
			got := collect(t, r, 1)[0]
			if len(got) != len(acked) {
				t.Fatalf("replayed %d batches, want the %d acked", len(got), len(acked))
			}
			for i := range acked {
				sameReadings(t, got[i], acked[i])
			}
		})
	}
}

// TestShortWriteUncutRefusesAppends: when the torn record cannot be
// cut away either, the shard refuses every later Append, so nothing is
// acked that replay would drop; a Rewrite replaces the file and lifts
// the refusal.
func TestShortWriteUncutRefusesAppends(t *testing.T) {
	fs := &tearingFS{inner: OSFS}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Shards: 1, Policy: SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	first := mkBatch(1, 0, 4)
	if err := appendCommit(l, first); err != nil {
		t.Fatal(err)
	}
	fs.tear.Store(true)
	fs.failTruncate.Store(true)
	if err := appendCommit(l, mkBatch(1, 4, 4)); err == nil {
		t.Fatal("torn write acked")
	}
	fs.tear.Store(false)
	fs.failTruncate.Store(false)
	if err := appendCommit(l, mkBatch(1, 4, 4)); err == nil {
		t.Fatal("Append acked behind a torn record that replay stops at")
	}
	if err := l.Rewrite(0, [][]core.Reading{first}); err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(l, mkBatch(1, 4, 4)); err != nil {
		t.Fatalf("append after Rewrite: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := collect(t, r, 1)[0]
	if len(got) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(got))
	}
	sameReadings(t, got[0], first)
	sameReadings(t, got[1], mkBatch(1, 4, 4))
}
