package dfs

import (
	"bytes"
	"fmt"
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

// TestReplication: each block gets DefaultReplication distinct
// replicas, clamped to the node count on a smaller cluster.
func TestReplication(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			fs := testFS(t, nodes)
			if err := fs.Write("f", []byte("data\n")); err != nil {
				t.Fatal(err)
			}
			splits, err := fs.Splits([]string{"f"}, true)
			if err != nil {
				t.Fatal(err)
			}
			got := splits[0].PreferredNodes
			if want := min(DefaultReplication, nodes); len(got) != want {
				t.Fatalf("replicas = %v, want %d", got, want)
			}
			seen := make(map[int]bool)
			for _, n := range got {
				if n < 0 || n >= nodes || seen[n] {
					t.Fatalf("replicas = %v: want distinct nodes in [0, %d)", got, nodes)
				}
				seen[n] = true
			}
		})
	}
}

// TestPlacementRoundRobin: successive blocks, across files too, start
// their replica runs one node further on, wrapping at the node count.
func TestPlacementRoundRobin(t *testing.T) {
	const nodes = 5
	fs := testFS(t, nodes, WithBlockSize(2))
	if err := fs.Write("a", []byte("1\n2\n3\n4\n5\n6\n7\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("b", []byte("8\n9\n")); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits([]string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 9 {
		t.Fatalf("%d splits, want 9", len(splits))
	}
	for i, sp := range splits {
		for j, n := range sp.PreferredNodes {
			if want := (i + j) % nodes; n != want {
				t.Fatalf("block %d replicas = %v, want a run from node %d", i, sp.PreferredNodes, i%nodes)
			}
		}
	}
}

// TestSplitBlocksAreCapped: a block split's slice ends at its block, so
// appending to it cannot overwrite the file's next block.
func TestSplitBlocksAreCapped(t *testing.T) {
	fs := testFS(t, 3, WithBlockSize(2))
	data := []byte("1\n2\n3\n")
	if err := fs.Write("f", data); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits([]string{"f"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range splits {
		if c := cap(splits[i].Blocks); c != 1 {
			t.Errorf("split %d: cap(Blocks) = %d, want 1", i, c)
		}
		splits[i].Blocks = append(splits[i].Blocks, Block{Data: []byte("x\n")})
	}
	if got := readAll(t, fs, "f"); !bytes.Equal(got, data) {
		t.Errorf("after appending to the splits the file reads %q, want %q", got, data)
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
	if _, err := New(c, WithBlockSize(-1)); err == nil {
		t.Error("negative block size: want error")
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
