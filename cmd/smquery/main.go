// Command smquery runs one benchmark task on one engine over a data
// directory and prints a summary of the results — the quickest way to
// poke at a data set or sanity-check an engine.
//
// Usage:
//
//	smquery -data DIR -engine colstore -task 3line
//	smquery -data DIR -engine hive -task similarity -k 5
//	smquery -data SEGDIR -engine colstore -membudget 64MiB -task histogram
//
// When -engine colstore is given a directory that already holds a
// sealed segment file (segments.col), it is opened in place with
// OpenExisting — optionally under a -membudget page-cache cap — rather
// than re-loaded from raw meter files. With -fsync batch or always the
// write-ahead log is armed on that open, so a log left behind by a
// crashed writer is replayed before the query answers:
//
//	smquery -data SEGDIR -engine colstore -fsync batch -task histogram
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/cluster"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/impute"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/wal"

	"github.com/smartmeter/smartbench/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smquery:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("smquery", flag.ContinueOnError)
	dataDir := fs.String("data", "", "data directory (required; written by smgen)")
	engineName := fs.String("engine", "colstore", "engine: filestore, rowstore, rowstore-array, colstore, spark, hive")
	taskName := fs.String("task", "histogram", "task: histogram, 3line, par, similarity")
	k := fs.Int("k", 10, "similarity top-k")
	workers := fs.Int("workers", 1, "intra-engine parallelism")
	limit := fs.Int("limit", 5, "max consumers to print")
	imputeGaps := fs.Bool("impute", false, "fill missing readings (hybrid imputation) before running")
	policyName := fs.String("failpolicy", "failfast", "per-consumer failure policy: failfast, quarantine or repair")
	timeout := fs.Duration("timeout", 0, "per-run deadline (0 = none), e.g. 30s")
	memBudgetStr := fs.String("membudget", "", "column-store decoded-block cache cap, e.g. 64MiB (colstore only; default: no cache)")
	fsyncName := fs.String("fsync", "off", "write-ahead-log policy when opening engine-native colstore storage: off, batch or always; batch/always replay any log a crashed writer left behind before answering (colstore only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}
	policy, err := core.ParseFailPolicy(*policyName)
	if err != nil {
		return err
	}
	if *timeout < 0 {
		return fmt.Errorf("negative timeout %v", *timeout)
	}
	memBudget, err := core.ParseByteSize(*memBudgetStr)
	if err != nil {
		return fmt.Errorf("bad -membudget %q (want e.g. 64MiB, 1GiB)", *memBudgetStr)
	}
	if memBudget > 0 && *engineName != "colstore" {
		return fmt.Errorf("-membudget applies only to -engine colstore")
	}
	walPolicy, walOn, err := parseFsync(*fsyncName)
	if err != nil {
		return err
	}
	if walOn && *engineName != "colstore" {
		return fmt.Errorf("-fsync applies only to -engine colstore")
	}

	var task core.Task
	switch *taskName {
	case "histogram":
		task = core.TaskHistogram
	case "3line", "threeline":
		task = core.TaskThreeLine
	case "par":
		task = core.TaskPAR
	case "similarity":
		task = core.TaskSimilarity
	default:
		return fmt.Errorf("unknown task %q", *taskName)
	}

	var eng core.Engine
	var cleanup func()
	var st *core.LoadStats
	segPath := filepath.Join(*dataDir, colstore.SegmentFileName)
	if _, serr := os.Stat(segPath); *engineName == "colstore" && serr == nil {
		// The directory is already engine-native storage: open the
		// sealed segment in place, paging under the budget if one is
		// set, instead of bulk-loading raw meter files.
		if *imputeGaps {
			return fmt.Errorf("-impute needs raw meter files, not a sealed segment dir")
		}
		var opts []colstore.Option
		if memBudget > 0 {
			opts = append(opts, colstore.WithMemBudget(memBudget))
		}
		if walOn {
			opts = append(opts, colstore.WithWAL(walPolicy))
		}
		e := colstore.New(*dataDir, opts...)
		eng, cleanup = e, func() { _ = e.Release() }
		st, err = e.OpenExisting()
		if err != nil {
			cleanup()
			return err
		}
		fmt.Printf("opened %d consumers (%d readings) from %s\n", st.Consumers, st.Readings, segPath)
	} else {
		src, err := meterdata.DiscoverSource(*dataDir)
		if err != nil {
			return err
		}
		if *imputeGaps {
			if err := cleanSource(src); err != nil {
				return err
			}
		}
		eng, cleanup, err = makeEngine(*engineName, memBudget, walOn, walPolicy)
		if err != nil {
			return err
		}
		st, err = eng.Load(src)
		if err != nil {
			cleanup()
			return err
		}
		fmt.Printf("loaded %d consumers (%d readings) into %s\n", st.Consumers, st.Readings, eng.Name())
	}
	defer cleanup()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := eng.RunContext(ctx, core.Spec{Task: task, K: *k, Workers: *workers, FailPolicy: policy})
	if err != nil {
		return err
	}
	printResults(res, *limit)
	for _, f := range res.Failed {
		fmt.Printf("  quarantined consumer %d: %s\n", f.ID, f.Err)
	}
	return nil
}

// cleanSource rewrites the data directory with missing readings filled
// in (readings parse as NaN only via explicit "NaN" tokens; zero-filled
// gaps are left alone).
func cleanSource(src *meterdata.Source) error {
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		return err
	}
	cleaned := 0
	for _, s := range ds.Series {
		frac := impute.Fraction(s.Readings)
		if stats.IsZero(frac) {
			continue
		}
		if err := impute.CleanSeries(s, 3); err != nil {
			return err
		}
		cleaned++
	}
	if cleaned == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "smquery: imputed gaps in %d series\n", cleaned)
	if src.Partitioned {
		_, err = meterdata.WritePartitioned(src.Dir, ds, src.Format)
	} else {
		_, err = meterdata.WriteUnpartitioned(src.Dir, ds, src.Format)
	}
	return err
}

// parseFsync maps the -fsync flag to a wal policy. "off" leaves the
// log unarmed (the historical behavior); batch/always arm it, which
// also replays any log a crashed writer left in the data directory.
func parseFsync(s string) (wal.SyncPolicy, bool, error) {
	if s == "off" {
		return wal.SyncBatch, false, nil
	}
	p, err := wal.ParsePolicy(s)
	if err != nil {
		return p, false, fmt.Errorf("bad -fsync %q (want off, batch or always)", s)
	}
	return p, true, nil
}

func makeEngine(name string, memBudget int64, walOn bool, walPolicy wal.SyncPolicy) (core.Engine, func(), error) {
	noop := func() {}
	switch name {
	case "filestore":
		return filestore.New(), noop, nil
	case "rowstore", "rowstore-array":
		dir, err := os.MkdirTemp("", "smquery-rowstore-*")
		if err != nil {
			return nil, noop, err
		}
		layout := rowstore.LayoutRows
		if name == "rowstore-array" {
			layout = rowstore.LayoutArrays
		}
		e := rowstore.New(dir, rowstore.WithLayout(layout))
		return e, func() { _ = e.Close(); _ = os.RemoveAll(dir) }, nil
	case "colstore":
		dir, err := os.MkdirTemp("", "smquery-colstore-*")
		if err != nil {
			return nil, noop, err
		}
		var opts []colstore.Option
		if memBudget > 0 {
			opts = append(opts, colstore.WithMemBudget(memBudget))
		}
		if walOn {
			opts = append(opts, colstore.WithWAL(walPolicy))
		}
		e := colstore.New(dir, opts...)
		return e, func() { _ = e.Release(); _ = os.RemoveAll(dir) }, nil
	case "spark", "hive":
		sim, err := distsim.New(distsim.DefaultConfig())
		if err != nil {
			return nil, noop, err
		}
		fsys, err := dfs.New(sim)
		if err != nil {
			return nil, noop, err
		}
		if name == "spark" {
			return cluster.NewSpark(fsys), noop, nil
		}
		return cluster.NewHive(fsys, 0, false), noop, nil
	default:
		return nil, noop, fmt.Errorf("unknown engine %q", name)
	}
}

func printResults(res *core.Results, limit int) {
	fmt.Printf("task %s: %d results\n", res.Task, res.Count())
	switch res.Task {
	case core.TaskHistogram:
		for i, h := range res.Histograms {
			if i >= limit {
				break
			}
			fmt.Printf("  consumer %d: range [%.3f, %.3f] kWh, counts %v\n",
				h.ID, h.Histogram.Min, h.Histogram.Max, h.Histogram.Counts)
		}
	case core.TaskThreeLine:
		for i, r := range res.ThreeLines {
			if i >= limit {
				break
			}
			fmt.Printf("  consumer %d: heating %.4f kWh/C, cooling %.4f kWh/C, base load %.3f kWh, breaks (%.1f, %.1f)\n",
				r.ID, r.HeatingGradient, r.CoolingGradient, r.BaseLoad, r.High.Break1, r.High.Break2)
		}
	case core.TaskPAR:
		for i, r := range res.Profiles {
			if i >= limit {
				break
			}
			fmt.Printf("  consumer %d profile:", r.ID)
			for _, v := range r.Profile {
				fmt.Printf(" %.2f", v)
			}
			fmt.Println()
		}
	case core.TaskSimilarity:
		for i, r := range res.Similar {
			if i >= limit {
				break
			}
			fmt.Printf("  consumer %d top matches:", r.ID)
			for _, m := range r.Matches {
				fmt.Printf(" %d(%.4f)", m.ID, m.Score)
			}
			fmt.Println()
		}
	}
}
