package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/wal"
)

func tinyOptions(t *testing.T, traced bool) options {
	t.Helper()
	return options{
		seed: 7, seconds: 0.05, scale: "tiny", trace: traced,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

// TestManifest pins BENCHMARK.json to the tables in metrics.go and
// main.go, so neither can name a workload or metric the other lacks.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json is not what -manifest prints; regenerate it with: go run -C bench . -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestWorkloads runs every workload, untraced and traced, at the tiny
// scale. Each run must be correct and must report exactly the declared
// metrics, each once, finite and in its declared unit.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(wl, tinyOptions(t, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is not reported", wl.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", wl.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", wl.name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", wl.name, d.Name, m.Value)
				}
			}
		}
	}
	if entries, err := os.ReadDir(buildDir); err == nil {
		for _, ent := range entries {
			if ent.IsDir() {
				t.Errorf("run directory %s was left behind", ent.Name())
			}
		}
	}
}

// TestTracedRun checks what only a traced run produces: a span file
// with the span names the README documents, and the derived metrics
// that say whether the parts add up.
func TestTracedRun(t *testing.T) {
	o := tinyOptions(t, true)
	res, err := runWorkload(findWorkload("scan_paged"), o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		names[s.Name]++
		byID[s.ID] = s
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{
		"colstore.open", "exec.run", "colstore.load", "colstore.append", "wal.fs.sync",
		"colstore.checkpoint", "colstore.reopen", "wal.replay", "colstore.cursor_drain", "kernel.threeline",
	} {
		if names[want] == 0 {
			t.Errorf("no %s span in the trace", want)
		}
	}
	// The log's fsyncs happen inside Append, and the trace must say so.
	underAppend := 0
	for _, s := range tf.Spans {
		if s.Name == "wal.fs.sync" && byID[s.Parent].Name == "colstore.append" {
			underAppend++
		}
	}
	if underAppend == 0 {
		t.Error("no wal.fs.sync span has a colstore.append parent")
	}
	if got := res.Metrics["bench.spans"].Value; int(got) != len(tf.Spans) {
		t.Errorf("bench.spans = %v, the file holds %d", got, len(tf.Spans))
	}
	for _, name := range []string{"exec.threeline.unattributed_share", "bench.trace_overhead_share", "wal.fsyncs_per_1k_readings"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s is not reported", name)
		}
	}
	if res.Metrics["colstore.pager_misses"].Value <= 0 {
		t.Error("the paged workload reports no pager misses")
	}
}

// TestGateCatchesOneBit flips the lowest bit of one number in one
// result and expects the run to count a failed operation and report
// itself incorrect.
func TestGateCatchesOneBit(t *testing.T) {
	o := tinyOptions(t, false)
	flipped := false
	o.tamper = func(res *core.Results) {
		if !flipped && len(res.ThreeLines) > 0 {
			r := res.ThreeLines[0]
			r.BaseLoad = math.Float64frombits(math.Float64bits(r.BaseLoad) ^ 1)
			flipped = true
		}
	}
	res, err := runWorkload(findWorkload("rowstore_text"), o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("no 3-line result passed through the gate")
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d after a one-bit change, want false and 1", res.Correct, res.Failed)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "append", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "write", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "sync", Start: ms(2), End: ms(6)},  // overlaps the write
		{ID: 4, Parent: 1, Name: "sync", Start: ms(8), End: ms(12)}, // runs past its parent
		{ID: 5, Parent: 3, Name: "inner", Start: ms(4), End: ms(5)},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	// append: 10 ms, children cover [1,6] and [8,10] = 7 ms.
	if r := got["append"]; r.Count != 1 || r.Total != 10*time.Millisecond || r.Self != 3*time.Millisecond {
		t.Errorf("append: %+v", r)
	}
	// sync: 4 ms + 4 ms in total; the first loses 1 ms to its child.
	if r := got["sync"]; r.Count != 2 || r.Total != 8*time.Millisecond || r.Self != 7*time.Millisecond {
		t.Errorf("sync: %+v", r)
	}
	if r := got["write"]; r.Self != r.Total || r.Total != 2*time.Millisecond {
		t.Errorf("write: %+v", r)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.begin("elsewhere").end() // another goroutine: no parent
	}()
	<-done
	inner.end()
	tr.enable(false)
	tr.begin("unrecorded").end()
	tr.enable(true)
	sibling := tr.begin("sibling")
	sibling.end()
	outer.end()

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	parent := map[string]int{}
	for _, s := range spans {
		parent[s.Name] = s.Parent
	}
	if parent["outer"] != 0 || parent["inner"] != 1 || parent["elsewhere"] != 0 || parent["sibling"] != 1 {
		t.Errorf("parents: %v", parent)
	}
	var nilTracer *tracer
	if d := nilTracer.begin("x").end(); d < 0 {
		t.Error("a nil tracer must still time the call")
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to show it sorts
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true},    // ten samples lie beyond
		{100, 0.99, 99, false},  // one does
		{1000, 0.99, 990, true}, // ten do
		{1009, 0.999, 1008, false},
		{10000, 0.999, 9990, true},
		{5, 1, 5, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.supported)
		}
	}
	for n, want := range map[int]float64{5: 0.5, 19: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestOwnTime checks the steal column is read per processor and that a
// stretch loses what the most-robbed processor lost, never more than
// the stretch itself.
func TestOwnTime(t *testing.T) {
	stat := "cpu  100 0 50 900 7 0 3 41 0 0\ncpu0 60 0 20 400 5 0 1 30 0 0\ncpu1 40 0 30 500 2 0 2 11 0 0\nintr 12345 0 9\nctxt 99\n"
	if got := parseSteal([]byte(stat)); !reflect.DeepEqual(got, []int64{30, 11}) {
		t.Fatalf("parseSteal = %v, want [30 11]", got)
	}
	if got := parseSteal(nil); got != nil {
		t.Errorf("parseSteal(nil) = %v", got)
	}
	start := stamp{at: time.Now().Add(-time.Second), steal: readSteal()}
	for i := range start.steal {
		start.steal[i] -= int64(1 + i%3) // what processor i lost since, in ticks
	}
	wall, stolen := start.since()
	if n := len(start.steal); n > 0 {
		if want := time.Duration(min(n, 3)) * stealTick; stolen < want || stolen > want+5*stealTick {
			t.Errorf("stolen = %v, want about %v", stolen, want)
		}
	} else if stolen != 0 {
		t.Errorf("stolen = %v with no steal counters", stolen)
	}
	if wall < time.Second || stolen > wall {
		t.Errorf("wall %v, stolen %v", wall, stolen)
	}
	start.steal = append(start.steal, 0) // a processor count that changed: no correction
	if _, stolen := start.since(); stolen != 0 {
		t.Errorf("stolen = %v across a change of processor count", stolen)
	}
}

func TestCountingFS(t *testing.T) {
	tr := newTracer()
	fs := newCountingFS(wal.OSFS, tr)
	dir := t.TempDir()
	lg, err := wal.Open(wal.Options{Dir: dir, Shards: 2, Policy: wal.SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	batch := []core.Reading{{ID: 1, Hour: 0, Consumption: 1.5, Temperature: -3}, {ID: 1, Hour: 1, Consumption: 2.5, Temperature: -2}}
	for shard := 0; shard < 2; shard++ {
		seq, err := lg.Append(shard, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Commit(shard, seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.fsyncs.Load(); got != 2 {
		t.Errorf("%d fsyncs counted for two committed batches on two shards, want 2", got)
	}
	if fs.writes.Load() < 2 {
		t.Errorf("%d writes counted, want at least one per batch", fs.writes.Load())
	}
	if got, want := fs.bytes.Load(), lg.SizeBytes(); got != want {
		t.Errorf("%d bytes counted, the log holds %d", got, want)
	}
	if got := len(fs.fsyncSeconds()); got != 2 {
		t.Errorf("%d fsync durations kept, want 2", got)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if fs.dirSyncs.Load() != 1 {
		t.Errorf("%d directory syncs counted, want 1", fs.dirSyncs.Load())
	}
	names := map[string]int{}
	for _, s := range tr.snapshot() {
		names[s.Name]++
	}
	if names["wal.fs.sync"] < 2 || names["wal.fs.syncdir"] != 1 {
		t.Errorf("spans: %v", names)
	}

	// What it wrote is a log the real filesystem reads back.
	back, err := wal.Open(wal.Options{Dir: dir, Shards: 2, Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if st := back.Stats(); st.Batches != 2 || st.Readings != 4 {
		t.Errorf("replay finds %+v, want 2 batches and 4 readings", st)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
}
