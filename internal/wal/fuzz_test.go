package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
)

// openReplay opens the one-shard log in dir and replays it.
func openReplay(t *testing.T, dir string) ([][]core.Reading, ReplayStats) {
	t.Helper()
	l, err := Open(Options{Dir: dir, Shards: 1, Policy: SyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got := collect(t, l, 1)[0]
	stats := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return got, stats
}

// wholeRecordAt reports whether b starts with a whole, CRC-clean record
// whose payload is a well-formed batch: its count matches its length and
// every hour fits an int at 32 bits.
func wholeRecordAt(b []byte) bool {
	if len(b) < recHdrSize {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(b[4:8]))
	if n > maxPayload || n > int64(len(b)-recHdrSize) || n < 4 {
		return false
	}
	payload := b[recHdrSize : recHdrSize+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[0:4]) {
		return false
	}
	if n != 4+int64(binary.LittleEndian.Uint32(payload[0:4]))*readingSize {
		return false
	}
	for off := int64(4); off < n; off += readingSize {
		if binary.LittleEndian.Uint32(payload[off+8:off+12]) > math.MaxInt32 {
			return false
		}
	}
	return true
}

// sealed returns payload framed as a CRC-clean record.
func sealed(payload []byte) []byte {
	rec := make([]byte, recHdrSize, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	return append(rec, payload...)
}

// hostileRecords are CRC-clean records whose stored fields no batch may
// hold, each refused at 32 and 64 bits alike.
func hostileRecords() []struct {
	name string
	rec  []byte
} {
	one := encodeRecord(nil, mkBatch(4, 7, 1))[recHdrSize:]
	withCount := func(count uint32) []byte {
		p := append([]byte(nil), one...)
		binary.LittleEndian.PutUint32(p[0:4], count)
		return sealed(p)
	}
	withHour := func(hour uint32) []byte {
		p := append([]byte(nil), one...)
		binary.LittleEndian.PutUint32(p[4+8:4+12], hour)
		return sealed(p)
	}
	return []struct {
		name string
		rec  []byte
	}{
		// count·28 wraps to 28 in 32-bit arithmetic.
		{"count 0x40000001 over one reading", withCount(0x40000001)},
		{"count 0xffffffff over one reading", withCount(0xffffffff)},
		{"hour 2^31", withHour(0x80000000)},
		{"hour 2^32-1", withHour(0xffffffff)},
	}
}

// FuzzWALReplay stands fuzz bytes in for a shard file, after the magic
// or in its place, and opens the log over it. Open and Replay must not
// panic, and must not fail: the only failures they may report are I/O
// errors, and there are none here. What comes back must re-encode to
// the file's surviving prefix byte for byte, so it is whole, CRC-clean
// records and nothing else; the first record cut off must not be one;
// the file must be left holding exactly that prefix; and a second open
// must replay the same batches and cut nothing.
func FuzzWALReplay(f *testing.F) {
	rec := encodeRecord(nil, mkBatch(2, 5, 2))
	torn := append(append([]byte{}, rec...), rec[:len(rec)-3]...)
	flipped := append([]byte{}, rec...)
	flipped[len(flipped)-1] ^= 1
	// CRC-clean, but the payload is one byte longer than its count says.
	padded := append(append([]byte{}, rec...), 0)
	binary.LittleEndian.PutUint32(padded[4:8], uint32(len(padded)-recHdrSize))
	binary.LittleEndian.PutUint32(padded[0:4], crc32.Checksum(padded[recHdrSize:], crcTable))
	f.Add(padded, true)
	for _, h := range hostileRecords() {
		f.Add(append(append([]byte{}, rec...), h.rec...), true)
	}
	f.Add(encodeRecord(nil, mkBatch(1, 0, 3)), true)
	f.Add(torn, true)
	f.Add(flipped, true)
	f.Add(encodeRecord(nil, nil), true)
	f.Add([]byte(magic[:len(magic)-1]), false)
	f.Add(append([]byte(magic), rec...), false)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, keepMagic bool) {
		file := data
		if keepMagic {
			file = append([]byte(magic), data...)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, shardFileName(0))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats := openReplay(t, dir)

		prefix := []byte(magic)
		var buf []byte
		readings := 0
		for _, b := range got {
			buf = encodeRecord(buf[:0], b)
			prefix = append(prefix, buf...)
			readings += len(b)
		}
		if stats.Batches != len(got) || stats.Readings != readings {
			t.Fatalf("stats %+v, replayed %d batches of %d readings", stats, len(got), readings)
		}
		if bytes.HasPrefix(file, []byte(magic)) {
			if !bytes.HasPrefix(file, prefix) {
				t.Fatalf("replayed batches do not re-encode to a prefix of the file")
			}
			if wholeRecordAt(file[len(prefix):]) {
				t.Fatalf("a whole record at offset %d was cut off", len(prefix))
			}
			if want := int64(len(file) - len(prefix)); stats.TruncatedBytes != want {
				t.Fatalf("TruncatedBytes = %d, want %d", stats.TruncatedBytes, want)
			}
		} else if len(got) != 0 || stats.TruncatedBytes != int64(len(file)) {
			t.Fatalf("no magic: replayed %d batches, truncated %d of %d bytes", len(got), stats.TruncatedBytes, len(file))
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, prefix) {
			t.Fatalf("file after open is %d bytes, want the %d-byte surviving prefix", len(onDisk), len(prefix))
		}

		again, stats2 := openReplay(t, dir)
		if len(again) != len(got) || stats2.TruncatedBytes != 0 {
			t.Fatalf("second open: %d batches, truncated %d; first open replayed %d", len(again), stats2.TruncatedBytes, len(got))
		}
		for i := range got {
			sameReadings(t, again[i], got[i])
		}
	})
}

// TestReplayRefusesHostileRecords writes a good record and then one of
// hostileRecords: replay must return the good batch alone, cut the
// hostile record off, and not panic — as a 32-bit binary too, where an
// unchecked count once made replay ask for a slice of 2³⁰ readings.
func TestReplayRefusesHostileRecords(t *testing.T) {
	good := mkBatch(2, 5, 2)
	for _, h := range hostileRecords() {
		t.Run(h.name, func(t *testing.T) {
			dir := t.TempDir()
			file := append(append([]byte(magic), encodeRecord(nil, good)...), h.rec...)
			if err := os.WriteFile(filepath.Join(dir, shardFileName(0)), file, 0o644); err != nil {
				t.Fatal(err)
			}
			got, stats := openReplay(t, dir)
			if len(got) != 1 {
				t.Fatalf("replayed %d batches, want the good one alone", len(got))
			}
			sameReadings(t, got[0], good)
			if stats.TruncatedBytes != int64(len(h.rec)) {
				t.Fatalf("truncated %d bytes, want the hostile record's %d", stats.TruncatedBytes, len(h.rec))
			}
		})
	}
}
