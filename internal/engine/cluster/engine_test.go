package cluster

import (
	"errors"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// profiles are the engines every suite in this package runs over: the
// two platforms, and Hive forced onto the shuffle plan.
var profiles = []struct {
	name string
	new  func(*dfs.FS) *Engine
}{
	{"spark", NewSpark},
	{"hive", func(fs *dfs.FS) *Engine { return NewHive(fs, 0, false) }},
	{"hive-forced-shuffle", func(fs *dfs.FS) *Engine { return NewHive(fs, 0, true) }},
}

var formats = []string{"format1", "format2", "format3"}

// makeSources writes one dataset in the paper's three cluster formats and
// returns it as read back from text (what every engine parses).
func makeSources(t *testing.T, consumers, days int) (map[string]*meterdata.Source, *timeseries.Dataset) {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*meterdata.Source{}
	if srcs["format1"], err = meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine); err != nil {
		t.Fatal(err)
	}
	if srcs["format2"], err = meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatSeriesPerLine); err != nil {
		t.Fatal(err)
	}
	if srcs["format3"], err = meterdata.WriteGrouped(t.TempDir(), ds, 3); err != nil {
		t.Fatal(err)
	}
	back, err := meterdata.ReadDataset(srcs["format1"])
	if err != nil {
		t.Fatal(err)
	}
	return srcs, back
}

// eachLoaded runs fn once per profile × format over a freshly loaded
// engine on its own cluster, skipping the one refused combination (see
// TestForcedPlanRefusedOverWrongFormat).
func eachLoaded(t *testing.T, srcs map[string]*meterdata.Source, fn func(t *testing.T, e *Engine, fs *dfs.FS)) {
	t.Helper()
	for _, p := range profiles {
		for _, format := range formats {
			if p.name == "hive-forced-shuffle" && format == "format2" {
				continue
			}
			t.Run(p.name+"/"+format, func(t *testing.T) {
				fs := testFS(t, 4)
				e := p.new(fs)
				if _, err := e.Load(srcs[format]); err != nil {
					t.Fatal(err)
				}
				fn(t, e, fs)
			})
		}
	}
}

func TestAllProfilesAllFormatsMatchReference(t *testing.T) {
	srcs, ref := makeSources(t, 5, 30)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		for _, task := range core.Tasks {
			for _, workers := range []int{0, 1, 4} {
				spec := core.Spec{Task: task, K: 3, Workers: workers, FailPolicy: core.Quarantine}
				got, err := e.Run(spec)
				if err != nil {
					t.Fatalf("%v w%d: %v", task, workers, err)
				}
				want, err := core.RunReference(ref, spec)
				if err != nil {
					t.Fatal(err)
				}
				cursortest.CompareResults(t, got, want)
				if len(got.Failed) != 0 {
					t.Fatalf("%v w%d: clean data quarantined %v", task, workers, got.Failed)
				}
			}
		}
		// An error of the reference is an error of the engine.
		bad := core.Spec{Task: core.Task(99)}
		_, wantErr := core.RunReference(ref, bad)
		if _, err := e.Run(bad); (err == nil) != (wantErr == nil) {
			t.Fatalf("unknown task: engine err = %v, reference err = %v", err, wantErr)
		}
	})
}

func TestLoadStatsAndMetadata(t *testing.T) {
	srcs, _ := makeSources(t, 5, 10)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, _ *dfs.FS) {
		// Load replaces what was loaded; its stats describe the source.
		st, err := e.Load(srcs["format1"])
		if err != nil {
			t.Fatal(err)
		}
		if st.Consumers != 5 || st.Readings != 5*10*24 || st.StorageBytes <= 0 {
			t.Errorf("stats = %+v", st)
		}
	})
	spark, hive := NewSpark(testFS(t, 2)), NewHive(testFS(t, 2), 0, false)
	if spark.Name() == hive.Name() || spark.Name() == "" {
		t.Errorf("names %q, %q", spark.Name(), hive.Name())
	}
	// Table 1: only Hive ships a histogram; both get regression from a
	// third-party library.
	if spark.Capabilities().Histogram != core.SupportNone || hive.Capabilities().Histogram != core.SupportBuiltin ||
		spark.Capabilities().Regression != core.SupportThirdParty || hive.Capabilities().Regression != core.SupportThirdParty {
		t.Errorf("capabilities: spark %+v, hive %+v", spark.Capabilities(), hive.Capabilities())
	}
}

func TestRunWithoutLoad(t *testing.T) {
	for _, p := range profiles {
		e := p.new(testFS(t, 2))
		if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); !errors.Is(err, core.ErrNotLoaded) {
			t.Errorf("%s Run: err = %v", p.name, err)
		}
		if _, err := e.NewCursors(1); !errors.Is(err, core.ErrNotLoaded) {
			t.Errorf("%s NewCursors: err = %v", p.name, err)
		}
		if _, err := e.Temperature(); !errors.Is(err, core.ErrNotLoaded) {
			t.Errorf("%s Temperature: err = %v", p.name, err)
		}
		if err := e.Release(); err != nil {
			t.Errorf("%s Release: %v", p.name, err)
		}
	}
}

// TestForcedPlanRefusedOverWrongFormat: series-per-line input has no
// readings to shuffle, so the forced shuffle plan is a configuration
// error, reported when the cursor is opened.
func TestForcedPlanRefusedOverWrongFormat(t *testing.T) {
	srcs, _ := makeSources(t, 3, 10)
	e := NewHive(testFS(t, 2), 0, true)
	if _, err := e.Load(srcs["format2"]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewCursors(1); err == nil {
		t.Error("NewCursors: forced shuffle over series-per-line input did not error")
	}
	if _, err := e.NewCursors(3); err == nil {
		t.Error("NewCursors: forced shuffle over series-per-line input did not error")
	}
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil {
		t.Error("Run: forced shuffle over series-per-line input did not error")
	}
}

func TestHiveReduceTasks(t *testing.T) {
	srcs, ref := makeSources(t, 4, 15)
	e := NewHive(testFS(t, 4), 7, false)
	if _, err := e.Load(srcs["format1"]); err != nil {
		t.Fatal(err)
	}
	curs, err := e.NewCursors(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range curs {
		_ = cur.Close()
	}
	if len(curs) != 7 {
		t.Errorf("7 reduce tasks gave %d partition cursors", len(curs))
	}
	spec := core.Spec{Task: core.TaskPAR}
	got, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunReference(ref, spec)
	if err != nil {
		t.Fatal(err)
	}
	cursortest.CompareResults(t, got, want)
}

// TestWorkersDefaultToClusterSlots: a spec that leaves Workers unset runs
// with nodes × slots workers, so the node sweeps of Figures 14/17/19
// scale compute; an explicit Workers wins.
func TestWorkersDefaultToClusterSlots(t *testing.T) {
	for _, p := range profiles {
		for _, nodes := range []int{2, 4} {
			fs := testFS(t, nodes)
			e := p.new(fs)
			slots := nodes * fs.Cluster().Config().SlotsPerNode
			if got := e.workers(0); got != slots {
				t.Errorf("%s, %d nodes, Workers unset: %d workers, want %d", p.name, nodes, got, slots)
			}
			for _, w := range []int{1, 3, 64} {
				if got := e.workers(w); got != w {
					t.Errorf("%s, %d nodes, Workers=%d: %d workers", p.name, nodes, w, got)
				}
			}
		}
	}
}

// TestSparkHoldsMoreThanHive pins Figure 15 where it is deterministic
// (format 1, no compute rate, blocks far smaller than the data): Spark
// keeps the parsed readings and the assembled series on their nodes until
// the job's cursors close, Hive frees each stage's output once the next
// has consumed it, so Spark's peak is the larger one, at every size.
func TestSparkHoldsMoreThanHive(t *testing.T) {
	for _, consumers := range []int{4, 12} {
		srcs, _ := makeSources(t, consumers, 20)
		peak := map[string]int64{}
		for _, p := range profiles[:2] {
			fs := testFS(t, 4)
			e := p.new(fs)
			if _, err := e.Load(srcs["format1"]); err != nil {
				t.Fatal(err)
			}
			fs.Cluster().ResetStats()
			if _, err := e.Run(core.Spec{Task: core.TaskPAR}); err != nil {
				t.Fatal(err)
			}
			peak[p.name] = fs.Cluster().Stats().PeakMemory()
			if got := fs.Cluster().MemoryInUse(); got != 0 {
				t.Errorf("%s: %d bytes still accounted after the run", p.name, got)
			}
		}
		if peak["hive"] == 0 || peak["spark"] <= peak["hive"] {
			t.Errorf("%d consumers: spark peak %d, hive peak %d; want spark above hive above zero",
				consumers, peak["spark"], peak["hive"])
		}
	}
}

// TestCursorCloseFreesNodeMemory: whatever a job accounts on the nodes
// is released when the last of its cursors closes, whichever that is and
// however far each was read.
func TestCursorCloseFreesNodeMemory(t *testing.T) {
	srcs, _ := makeSources(t, 6, 10)
	eachLoaded(t, srcs, func(t *testing.T, e *Engine, fs *dfs.FS) {
		inUse := fs.Cluster().MemoryInUse
		cur, err := cursortest.Open(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		if e.prof.resident && inUse() == 0 {
			t.Error("resident profile holds no node memory while its cursor is open")
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if got := inUse(); got != 0 {
			t.Fatalf("%d bytes in use after the only cursor closed", got)
		}
		// Partition cursors: read some, skip one, close in a scrambled
		// order; only the last Close may bring the count to zero for a
		// resident profile.
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
			curs, err := e.NewCursors(3)
			if err != nil {
				t.Fatal(err)
			}
			for i, cur := range curs {
				if i == 1 {
					continue // never read
				}
				if _, err := cur.Next(); err != nil {
					t.Fatalf("partition %d: %v", i, err)
				}
			}
			closed := 0
			for _, i := range order {
				if i >= len(curs) {
					continue
				}
				if err := curs[i].Close(); err != nil {
					t.Fatal(err)
				}
				if closed++; closed < len(curs) && e.prof.resident && inUse() == 0 {
					t.Errorf("order %v: resident output freed with %d cursors still open", order, len(curs)-closed)
				}
			}
			if got := inUse(); got != 0 {
				t.Fatalf("order %v: %d bytes in use after every cursor closed", order, got)
			}
		}
	})
}
