// Package wal implements the write-ahead log that makes live
// ingestion crash-safe. Engines append each batch to the log before
// acking Append; on reopen the log is replayed through the engine's
// idempotent append path, so the recovered state is bit-exact with a
// no-crash run over the acked prefix. Checkpoints rewrite the log down
// to the readings that are not yet folded into the base segment. Both
// engines open one shard, the file wal-000.log.
//
// File format. Each shard owns one file, wal-NNN.log:
//
//	file    = magic record*
//	magic   = "SMWAL1\n\x00"                          (8 bytes)
//	record  = crc32c(payload) u32le · len(payload) u32le · payload
//	payload = count u32le · reading×count
//	reading = id u64le · hour u32le · consumption u64le · temperature u64le
//
// Consumption and temperature are IEEE-754 bit patterns, so replay is
// bit-exact. The CRC is Castagnoli (CRC32C) over the payload only: a
// torn or corrupt tail fails the checksum and the file is truncated at
// the last whole record — a bad record is never decoded, and nothing
// after it is trusted.
//
// Durability policies. SyncAlways fsyncs inside Append (every batch is
// durable before it is acked). SyncBatch acks after the write and makes
// Commit a group commit: one leader fsyncs on behalf of every batch
// written before it grabbed the file, so concurrent writers share
// fsyncs. SyncOff never fsyncs — the log bounds loss to the OS page
// cache but forfeits power-failure durability.
//
// All file access goes through the FS interface so tests can substitute
// a deterministic fault-injecting filesystem (internal/fault.Disk).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch groups fsyncs: Append returns after the buffered
	// write and Commit blocks until a leader's fsync covers it.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs inside every Append before it returns.
	SyncAlways
	// SyncOff never fsyncs. Acked batches survive a process crash
	// (the OS holds the pages) but not a power failure.
	SyncOff
)

// ParsePolicy maps the -fsync flag values to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always, batch or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "batch"
}

// File is the slice of *os.File the log needs. Truncate must leave the
// write position at the new end of file.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
}

// FS abstracts the filesystem so the crash harness can inject torn
// writes and failed fsyncs deterministically. OSFS is the real one.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens path read/write, creating it if absent, with
	// the write position at the end of the file.
	OpenAppend(path string) (File, error)
	// Create truncates or creates path for writing.
	Create(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// SyncDir fsyncs the directory so renames and creates survive a
	// power failure.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error)             { return o.f.Write(p) }
func (o osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }
func (o osFile) Close() error                            { return o.f.Close() }
func (o osFile) Sync() error                             { return o.f.Sync() }

func (o osFile) Truncate(size int64) error {
	if err := o.f.Truncate(size); err != nil {
		return err
	}
	_, err := o.f.Seek(size, io.SeekStart)
	return err
}

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

const (
	magic       = "SMWAL1\n\x00"
	recHdrSize  = 8  // crc u32 + len u32
	readingSize = 28 // id u64 + hour u32 + consumption u64 + temperature u64
	// maxPayload bounds a record so a corrupt length field cannot ask
	// for a multi-gigabyte allocation before the CRC is checked.
	maxPayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir holds one wal-NNN.log per shard. Created if absent.
	Dir string
	// Shards is the number of log files. Both engines open one.
	Shards int
	// Policy is the fsync policy. Zero value is SyncBatch.
	Policy SyncPolicy
	// FS is the filesystem; nil means OSFS.
	FS FS
}

// ReplayStats summarizes what Open found in the log.
type ReplayStats struct {
	// Batches and Readings count the intact records recovered.
	Batches  int
	Readings int
	// TruncatedBytes is how much torn or corrupt tail was cut off
	// across all shard files.
	TruncatedBytes int64
}

// Log is a per-shard write-ahead log. Append/Commit on distinct shards
// never contend; on one shard they serialize on the shard mutex.
type Log struct {
	fs     FS
	dir    string
	policy SyncPolicy
	shards []*shardLog

	replayMu sync.Mutex
	pending  [][]replayBatch // decoded by Open, freed by Replay
	stats    ReplayStats
}

type replayBatch struct {
	batch []core.Reading
}

type shardLog struct {
	mu   sync.Mutex
	cond sync.Cond
	f    File
	path string
	size int64

	// Group commit: writeSeq numbers appended batches, syncSeq is the
	// highest batch known durable. A Commit caller whose seq is not
	// yet covered either becomes the leader (fsyncs everything
	// written so far) or waits for the current leader's broadcast. A
	// failed fsync poisons exactly the batches it covered
	// (seq ≤ failEnd): later writers get a fresh fsync attempt.
	writeSeq uint64
	syncSeq  uint64
	syncing  bool
	failErr  error
	failEnd  uint64
	// broken is set when a failed write left a torn record that could
	// not be truncated away; Append refuses every batch until Rewrite
	// replaces the file.
	broken error

	buf []byte // encode scratch, reused across Appends
}

// Open opens (creating if needed) the per-shard log files under
// opts.Dir, verifies each tail record by CRC, truncates any torn or
// corrupt tail, and retains the intact records for Replay.
func Open(opts Options) (*Log, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("wal: shards must be positive, have %d", opts.Shards)
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		fs:      fs,
		dir:     opts.Dir,
		policy:  opts.Policy,
		shards:  make([]*shardLog, opts.Shards),
		pending: make([][]replayBatch, opts.Shards),
	}
	for i := range l.shards {
		sh := &shardLog{path: filepath.Join(opts.Dir, shardFileName(i))}
		sh.cond.L = &sh.mu
		if err := l.openShard(sh, i); err != nil {
			l.closeShards(i)
			return nil, err
		}
		l.shards[i] = sh
	}
	return l, nil
}

func shardFileName(i int) string { return fmt.Sprintf("wal-%03d.log", i) }

// openShard opens one shard file, scans its records and truncates the
// first torn or corrupt one together with everything after it.
func (l *Log) openShard(sh *shardLog, shard int) error {
	f, err := l.fs.OpenAppend(sh.path)
	if err != nil {
		return fmt.Errorf("wal: open shard %d: %w", shard, err)
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: size shard %d: %w", shard, err)
	}
	keep, batches, err := scan(f, size)
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: scan shard %d: %w", shard, err)
	}
	if keep < size {
		l.stats.TruncatedBytes += size - keep
	}
	if keep == 0 {
		// Missing or torn magic: reset the file to a fresh log.
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: reset shard %d: %w", shard, err)
		}
		if _, err := f.Write([]byte(magic)); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: magic shard %d: %w", shard, err)
		}
		keep = int64(len(magic))
	} else if keep < size {
		if err := f.Truncate(keep); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: truncate shard %d: %w", shard, err)
		}
	}
	for _, b := range batches {
		l.stats.Batches++
		l.stats.Readings += len(b)
		l.pending[shard] = append(l.pending[shard], replayBatch{batch: b})
	}
	sh.f = f
	sh.size = keep
	return nil
}

// scan walks the record stream and returns the byte offset of the last
// whole, CRC-clean record plus the decoded batches up to it. A file
// without an intact magic header scans to keep=0. Only I/O failures
// return an error — corruption is handled by truncation, not failure.
func scan(f io.ReaderAt, size int64) (keep int64, batches [][]core.Reading, err error) {
	hdr := make([]byte, len(magic))
	if size < int64(len(magic)) {
		return 0, nil, nil
	}
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, nil, err
	}
	if string(hdr) != magic {
		return 0, nil, nil
	}
	off := int64(len(magic))
	var rec [recHdrSize]byte
	var payload []byte
	for {
		if size-off < recHdrSize {
			return off, batches, nil
		}
		if _, err := f.ReadAt(rec[:], off); err != nil {
			return 0, nil, err
		}
		wantCRC := binary.LittleEndian.Uint32(rec[0:4])
		n := int64(binary.LittleEndian.Uint32(rec[4:8]))
		if n > maxPayload || size-off-recHdrSize < n {
			return off, batches, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := f.ReadAt(payload, off+recHdrSize); err != nil {
			return 0, nil, err
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return off, batches, nil
		}
		batch, ok := decodePayload(payload)
		if !ok {
			return off, batches, nil
		}
		batches = append(batches, batch)
		off += recHdrSize + n
	}
}

func decodePayload(p []byte) ([]core.Reading, bool) {
	if len(p) < 4 {
		return nil, false
	}
	// Both stored fields are compared as uint64 before either becomes an
	// int: at 32 bits a count of 0x40000001 would wrap count*readingSize
	// to one reading's size, and an hour of 2³¹ or more would turn
	// negative.
	count := uint64(binary.LittleEndian.Uint32(p[0:4]))
	if uint64(len(p)) != 4+count*readingSize {
		return nil, false
	}
	batch := make([]core.Reading, count)
	for i := range batch {
		b := p[4+i*readingSize:]
		hour := uint64(binary.LittleEndian.Uint32(b[8:12]))
		if hour > math.MaxInt32 {
			return nil, false
		}
		batch[i] = core.Reading{
			ID:          timeseries.ID(binary.LittleEndian.Uint64(b[0:8])),
			Hour:        int(hour),
			Consumption: fromBits(binary.LittleEndian.Uint64(b[12:20])),
			Temperature: fromBits(binary.LittleEndian.Uint64(b[20:28])),
		}
	}
	return batch, true
}

// Replay hands every intact batch recovered by Open to fn in
// per-shard write order, then frees them. Batches on distinct shards
// hold disjoint households, so cross-shard order does not matter to an
// idempotent appender. Replay is one-shot: a second call sees nothing.
func (l *Log) Replay(fn func(shard int, batch []core.Reading) error) error {
	l.replayMu.Lock()
	pending := l.pending
	l.pending = nil
	l.replayMu.Unlock()
	for shard, batches := range pending {
		for _, rb := range batches {
			if err := fn(shard, rb.batch); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats reports what Open recovered and truncated.
func (l *Log) Stats() ReplayStats {
	l.replayMu.Lock()
	defer l.replayMu.Unlock()
	return l.stats
}

// Append writes one batch to the shard's log as one record. Under
// SyncAlways it is durable when Append returns; under SyncBatch the
// caller must Commit the returned sequence number before acking the
// batch. A failed write leaves no part of its record behind: the file
// is cut back to the last whole record, and if that cut fails too, the
// shard refuses every later Append until Rewrite replaces its file.
func (l *Log) Append(shard int, batch []core.Reading) (uint64, error) {
	sh := l.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.broken != nil {
		return 0, sh.broken
	}
	if len(batch) > 0 {
		sh.buf = encodeRecord(sh.buf[:0], batch)
		if _, err := sh.f.Write(sh.buf); err != nil {
			// Replay stops at a torn record, so one left here would
			// hide every record written after it.
			if terr := sh.f.Truncate(sh.size); terr != nil {
				sh.broken = fmt.Errorf("wal: shard %d refuses appends: a failed write could not be cut back: %w", shard, terr)
			}
			return 0, fmt.Errorf("wal: append shard %d: %w", shard, err)
		}
		sh.size += int64(len(sh.buf))
		sh.writeSeq++
	}
	if l.policy == SyncAlways {
		if err := sh.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync shard %d: %w", shard, err)
		}
		sh.syncSeq = sh.writeSeq
	}
	return sh.writeSeq, nil
}

func encodeRecord(dst []byte, batch []core.Reading) []byte {
	payloadLen := 4 + len(batch)*readingSize
	need := recHdrSize + payloadLen
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	dst = dst[:need]
	payload := dst[recHdrSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(batch)))
	for i, r := range batch {
		b := payload[4+i*readingSize:]
		binary.LittleEndian.PutUint64(b[0:8], uint64(r.ID))
		binary.LittleEndian.PutUint32(b[8:12], uint32(r.Hour))
		binary.LittleEndian.PutUint64(b[12:20], toBits(r.Consumption))
		binary.LittleEndian.PutUint64(b[20:28], toBits(r.Temperature))
	}
	binary.LittleEndian.PutUint32(dst[0:4], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(payloadLen))
	return dst
}

// Commit makes the batch Append returned seq for durable according to
// the policy. SyncAlways already synced in Append and SyncOff never
// syncs, so both return immediately; SyncBatch blocks until a group
// fsync covers seq.
func (l *Log) Commit(shard int, seq uint64) error {
	if l.policy != SyncBatch {
		return nil
	}
	sh := l.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if sh.syncSeq >= seq {
			return nil
		}
		if sh.failErr != nil && seq <= sh.failEnd {
			return sh.failErr
		}
		if !sh.syncing {
			sh.syncing = true
			target := sh.writeSeq
			sh.mu.Unlock()
			err := sh.f.Sync()
			sh.mu.Lock()
			sh.syncing = false
			if err != nil {
				sh.failErr = fmt.Errorf("wal: fsync shard %d: %w", shard, err)
				sh.failEnd = target
			} else {
				sh.syncSeq = target
				sh.failErr = nil
			}
			sh.cond.Broadcast()
			continue
		}
		sh.cond.Wait()
	}
}

// Rewrite atomically replaces one shard's log with the given batches
// (typically the per-household tail remainders after a checkpoint):
// temp file, fsync, rename over, directory fsync. The caller must
// guarantee no concurrent Append/Commit on the shard.
func (l *Log) Rewrite(shard int, batches [][]core.Reading) error {
	sh := l.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tmp := sh.path + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: rewrite shard %d: %w", shard, err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: rewrite shard %d: %w", shard, err)
	}
	size := int64(len(magic))
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		sh.buf = encodeRecord(sh.buf[:0], b)
		n, err := f.Write(sh.buf)
		size += int64(n)
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: rewrite shard %d: %w", shard, err)
		}
	}
	if l.policy != SyncOff {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: rewrite fsync shard %d: %w", shard, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: rewrite close shard %d: %w", shard, err)
	}
	if err := l.fs.Rename(tmp, sh.path); err != nil {
		return fmt.Errorf("wal: rewrite rename shard %d: %w", shard, err)
	}
	if l.policy != SyncOff {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: rewrite dir fsync shard %d: %w", shard, err)
		}
	}
	old := sh.f
	nf, err := l.fs.OpenAppend(sh.path)
	if err != nil {
		return fmt.Errorf("wal: rewrite reopen shard %d: %w", shard, err)
	}
	sh.f = nf
	sh.size = size
	// Everything in the rewritten log is durable; future Commits only
	// wait for batches appended after this point.
	sh.syncSeq = sh.writeSeq
	sh.failErr = nil
	sh.broken = nil
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: rewrite close old shard %d: %w", shard, err)
	}
	return nil
}

// SizeBytes is the total size of all shard files.
func (l *Log) SizeBytes() int64 {
	var total int64
	for _, sh := range l.shards {
		sh.mu.Lock()
		total += sh.size
		sh.mu.Unlock()
	}
	return total
}

// Close syncs (unless SyncOff) and closes every shard file.
func (l *Log) Close() error {
	var first error
	for i, sh := range l.shards {
		sh.mu.Lock()
		if sh.f != nil {
			if l.policy != SyncOff {
				if err := sh.f.Sync(); err != nil && first == nil {
					first = fmt.Errorf("wal: close fsync shard %d: %w", i, err)
				}
			}
			if err := sh.f.Close(); err != nil && first == nil {
				first = fmt.Errorf("wal: close shard %d: %w", i, err)
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// Drop closes every shard file WITHOUT a final sync — the simulated
// process death: nothing beyond the last Commit may become durable.
// Only crash tests and the recovery benchmark call it.
func (l *Log) Drop() {
	for _, sh := range l.shards {
		sh.mu.Lock()
		if sh.f != nil {
			_ = sh.f.Close()
			sh.f = nil
		}
		sh.mu.Unlock()
	}
}

func (l *Log) closeShards(n int) {
	for i := 0; i < n; i++ {
		sh := l.shards[i]
		if sh != nil && sh.f != nil {
			_ = sh.f.Close()
		}
	}
}

// Clear removes the per-shard log files under dir — the reset an
// engine performs when a fresh bulk Load replaces the stored state and
// any surviving log would replay against the wrong base. Missing files
// are fine; the log must not be open.
func Clear(dir string, shards int, fs FS) error {
	if fs == nil {
		fs = OSFS
	}
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, shardFileName(i))
		if err := fs.Remove(path); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return fmt.Errorf("wal: clear: %w", err)
		}
	}
	return nil
}

func toBits(f float64) uint64   { return math.Float64bits(f) }
func fromBits(u uint64) float64 { return math.Float64frombits(u) }
