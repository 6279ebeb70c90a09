package dfs

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/distsim"
)

func testFS(t *testing.T, nodes int, opts ...Option) *FS {
	t.Helper()
	c, err := distsim.New(distsim.Config{
		Nodes: nodes, SlotsPerNode: 2,
		TransferLatency: time.Microsecond, BytesPerSecond: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// splitData reads one split's bytes through its Reader.
func splitData(t *testing.T, s *Split) []byte {
	t.Helper()
	data, err := io.ReadAll(s.Reader())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readAll concatenates a file's block splits.
func readAll(t *testing.T, fs *FS, name string) []byte {
	t.Helper()
	splits, err := fs.Splits([]string{name}, true)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for i := range splits {
		all = append(all, splitData(t, &splits[i])...)
	}
	return all
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := testFS(t, 4, WithBlockSize(64))
	data := []byte(strings.Repeat("line-one\nline-two\nline-three\n", 20))
	if err := fs.Write("f.csv", data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, fs, "f.csv"), data) {
		t.Error("round trip mismatch")
	}
}

func TestBlocksSplitOnLineBoundaries(t *testing.T) {
	fs := testFS(t, 4, WithBlockSize(10))
	data := []byte("aaaaaaaaaaaaaaaaaa\nbb\ncccccccccccc\n")
	if err := fs.Write("f", data); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits([]string{"f"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("expected multiple splits, got %d", len(splits))
	}
	for i := range splits {
		d := splitData(t, &splits[i])
		if len(d) > 0 && d[len(d)-1] != '\n' {
			t.Errorf("split %d does not end on a line boundary: %q", i, d)
		}
	}
	// Concatenation preserves content.
	if !bytes.Equal(readAll(t, fs, "f"), data) {
		t.Error("splits lost data")
	}
}

func TestNonSplittableFiles(t *testing.T) {
	fs := testFS(t, 4, WithBlockSize(8))
	data := []byte("1,0,1.0\n1,1,2.0\n1,2,3.0\n1,3,4.0\n")
	fs.Write("g1", data)
	fs.Write("g2", data)
	splits, err := fs.Splits([]string{"g1", "g2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("non-splittable: %d splits, want 2", len(splits))
	}
	if !bytes.Equal(splitData(t, &splits[0]), data) {
		t.Error("whole-file split mismatch")
	}
	if splits[0].Bytes() != int64(len(data)) {
		t.Errorf("split bytes = %d", splits[0].Bytes())
	}
}

func TestReplication(t *testing.T) {
	fs := testFS(t, 5, WithReplication(3))
	fs.Write("f", []byte("data\n"))
	splits, _ := fs.Splits([]string{"f"}, true)
	if len(splits[0].PreferredNodes) != 3 {
		t.Errorf("replicas = %v", splits[0].PreferredNodes)
	}
	// Replication clamps to node count.
	small := testFS(t, 2, WithReplication(10))
	small.Write("f", []byte("x\n"))
	sp, _ := small.Splits([]string{"f"}, true)
	if len(sp[0].PreferredNodes) != 2 {
		t.Errorf("clamped replicas = %v", sp[0].PreferredNodes)
	}
}

func TestErrors(t *testing.T) {
	fs := testFS(t, 2)
	if err := fs.Write("", []byte("x")); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := fs.Splits([]string{"missing"}, true); err == nil {
		t.Error("missing splits: want error")
	}
}

func TestEmptyFile(t *testing.T) {
	fs := testFS(t, 2)
	if err := fs.Write("empty", nil); err != nil {
		t.Fatal(err)
	}
	for _, splittable := range []bool{true, false} {
		splits, err := fs.Splits([]string{"empty"}, splittable)
		if err != nil || len(splits) != 1 || splits[0].Bytes() != 0 {
			t.Errorf("splittable=%v: empty splits = %d, %v", splittable, len(splits), err)
		}
	}
}

func TestBadOptions(t *testing.T) {
	c, _ := distsim.New(distsim.Config{Nodes: 1, SlotsPerNode: 1, BytesPerSecond: 1})
	if _, err := New(c, WithBlockSize(0)); err == nil {
		t.Error("zero block size: want error")
	}
	if _, err := New(c, WithReplication(0)); err == nil {
		t.Error("zero replication: want error")
	}
}

func TestOverwrite(t *testing.T) {
	fs := testFS(t, 2)
	fs.Write("f", []byte("old\n"))
	fs.Write("f", []byte("new-contents\n"))
	if got := readAll(t, fs, "f"); string(got) != "new-contents\n" {
		t.Errorf("overwrite = %q", got)
	}
}
