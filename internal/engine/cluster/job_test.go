package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// testFS is a small cluster with an instant network and 64-byte blocks,
// so even a few lines of input span several splits.
func testFS(t *testing.T, nodes int) *dfs.FS {
	t.Helper()
	c, err := distsim.New(distsim.Config{
		Nodes: nodes, SlotsPerNode: 4,
		TransferLatency: time.Microsecond, BytesPerSecond: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// numberSplits writes n lines "key,i,i" (key = i mod keys) and returns
// the file's block splits.
func numberSplits(t *testing.T, fs *dfs.FS, n, keys int) []dfs.Split {
	t.Helper()
	var data []byte
	for i := 0; i < n; i++ {
		data = fmt.Appendf(data, "%d,%d,%d\n", i%keys, i, i)
	}
	if err := fs.Write("nums", data); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits([]string{"nums"}, true)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

func testJob(fs *dfs.FS) *job { return &job{cluster: fs.Cluster(), prof: hiveProfile} }

func TestShuffleSumsByKey(t *testing.T) {
	fs := testFS(t, 4)
	j := testJob(fs)
	ctx := context.Background()
	readings, err := j.scan(ctx, numberSplits(t, fs, 100, 5), parseReadings)
	if err != nil {
		t.Fatal(err)
	}
	// reduce emits one single-reading series per key holding the sum.
	out, err := j.shuffle(ctx, readings, 0, func(readings []meterdata.Reading, out *partition) error {
		sums := map[timeseries.ID]float64{}
		for _, r := range readings {
			sums[r.ID] += r.Consumption
		}
		for id, sum := range sums {
			out.addSeries(&timeseries.Series{ID: id, Readings: []float64{sum}})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[timeseries.ID]float64{}
	for i := 0; i < 100; i++ {
		want[timeseries.ID(i%5)] += float64(i)
	}
	got := j.collect(ctx, out)
	if len(got) != 5 {
		t.Fatalf("collected %d keys, want 5", len(got))
	}
	for _, s := range got {
		if s.Readings[0] != want[s.ID] {
			t.Errorf("key %d sum = %v, want %v", s.ID, s.Readings[0], want[s.ID])
		}
	}
}

// TestScanKeepsInputOrder: a scan-only job's output is in split order
// then line order, whatever order the tasks finished in.
func TestScanKeepsInputOrder(t *testing.T) {
	fs := testFS(t, 4)
	j := testJob(fs)
	ctx := context.Background()
	splits := numberSplits(t, fs, 40, 40)
	if len(splits) < 2 {
		t.Fatalf("%d splits, want several", len(splits))
	}
	parts, err := j.scan(ctx, splits, func(r io.Reader, out *partition) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			rd, err := meterdata.ParseReadingLine(sc.Text())
			if err != nil {
				return err
			}
			out.addSeries(&timeseries.Series{ID: rd.ID, Readings: []float64{rd.Consumption}})
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := j.collect(ctx, parts)
	if len(got) != 40 {
		t.Fatalf("collected %d records, want 40", len(got))
	}
	for i, s := range got {
		if s.ID != timeseries.ID(i) {
			t.Fatalf("record %d has key %d", i, s.ID)
		}
	}
}

func TestShuffleChargesNetworkScanDoesNot(t *testing.T) {
	fs := testFS(t, 4)
	j := testJob(fs)
	ctx := context.Background()
	splits := numberSplits(t, fs, 500, 5)
	fs.Cluster().ResetStats()
	readings, err := j.scan(ctx, splits, parseReadings)
	if err != nil {
		t.Fatal(err)
	}
	// A scan moves nothing beyond non-local block reads.
	if st := fs.Cluster().Stats(); st.Transfers > st.RemoteReads {
		t.Errorf("scan transferred beyond its block reads: %+v", st)
	}
	before := fs.Cluster().Stats().BytesMoved
	if _, err := j.shuffle(ctx, readings, 0, func([]meterdata.Reading, *partition) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fs.Cluster().Stats().BytesMoved == before {
		t.Error("shuffle moved no bytes")
	}
}

func TestReduceTaskCountSetsPartitionCount(t *testing.T) {
	fs := testFS(t, 4)
	j := testJob(fs)
	ctx := context.Background()
	readings, err := j.scan(ctx, numberSplits(t, fs, 200, 5), parseReadings)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 8} {
		// Each reduce task reports how many readings it was handed.
		out, err := j.shuffle(ctx, readings, n, func(readings []meterdata.Reading, out *partition) error {
			out.addSeries(&timeseries.Series{Readings: make([]float64, len(readings))})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if want == 0 {
			want = fs.Cluster().Nodes()
		}
		if len(out) != want {
			t.Errorf("reduce tasks = %d: %d partitions", n, len(out))
		}
		total := 0
		for _, s := range j.collect(ctx, out) {
			total += len(s.Readings)
		}
		if total != 200 {
			t.Errorf("reduce tasks = %d: %d readings reached a reducer, want 200", n, total)
		}
	}
}

func TestBroadcastChargesEveryNode(t *testing.T) {
	fs := testFS(t, 5)
	fs.Cluster().ResetStats()
	testJob(fs).broadcast(context.Background(), 1000)
	if s := fs.Cluster().Stats(); s.Transfers != 5 || s.BytesMoved != 5000 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDispatchChargedPerTask(t *testing.T) {
	fs := testFS(t, 2)
	// Many tiny files: one non-splittable split, so one task, each.
	var names []string
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := fs.Write(name, []byte("1,1,1\n")); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	splits, err := fs.Splits(names, false)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{cluster: fs.Cluster(), prof: profile{dispatch: 2 * time.Millisecond}}
	start := time.Now()
	if _, err := j.scan(context.Background(), splits, parseReadings); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("stage took %v, want >= 40ms for 20 tasks at 2ms", d)
	}
}

func TestStageErrors(t *testing.T) {
	fs := testFS(t, 2)
	j := testJob(fs)
	ctx := context.Background()
	if _, err := j.scan(ctx, nil, parseReadings); err == nil {
		t.Error("no splits: want error")
	}
	splits := numberSplits(t, fs, 10, 5)
	boom := errors.New("boom")
	if _, err := j.scan(ctx, splits, func(io.Reader, *partition) error { return boom }); err != boom {
		t.Errorf("scan err = %v", err)
	}
	readings, err := j.scan(ctx, splits, parseReadings)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.shuffle(ctx, readings, 0, func([]meterdata.Reading, *partition) error { return boom }); err != boom {
		t.Errorf("shuffle err = %v", err)
	}
	// Whatever the failed stages left accounted, close frees.
	j.close()
	if got := fs.Cluster().MemoryInUse(); got != 0 {
		t.Errorf("%d bytes still accounted after close", got)
	}
}
