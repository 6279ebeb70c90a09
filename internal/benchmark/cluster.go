package benchmark

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/engine/mapreduce"
	"github.com/smartmeter/smartbench/internal/engine/rdd"
	"github.com/smartmeter/smartbench/internal/meterdata"
)

// clusterPair builds a fresh cluster with a Hive and a Spark engine
// loaded from the given source.
func clusterPair(nodes int, src *meterdata.Source, hiveOpts []mapreduce.Option) (*dfs.FS, *mapreduce.Engine, *rdd.Engine, error) {
	cluster, err := newCluster(nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	fsys, err := dfs.New(cluster, dfs.WithBlockSize(256<<10))
	if err != nil {
		return nil, nil, nil, err
	}
	hive := mapreduce.New(fsys, hiveOpts...)
	spark := rdd.New(fsys)
	if _, err := hive.Load(src); err != nil {
		return nil, nil, nil, err
	}
	if _, err := spark.Load(src); err != nil {
		return nil, nil, nil, err
	}
	return fsys, hive, spark, nil
}

// timeEngine times one cold task run on an engine, routed through
// opts.run so -failpolicy and -timeout apply.
func timeEngine(opts *Options, e core.Engine, spec core.Spec) (time.Duration, error) {
	if err := e.Release(); err != nil {
		return 0, err
	}
	return Timed(func() error {
		_, err := opts.run(e, spec)
		return err
	})
}

// Fig11 regenerates Figure 11: the single-server column store versus
// the cluster engines as data grows.
func Fig11(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	rep := &Report{
		ID:      "fig11",
		Title:   fmt.Sprintf("System C (1 server) vs Spark & Hive (%d-node cluster)", nodes),
		Columns: []string{"task", "consumers", "colstore", "spark", "hive"},
		Notes: []string{
			"expected shape: colstore keeps up at small-to-medium sizes; cluster engines catch up as data grows",
		},
	}
	for _, task := range core.Tasks {
		sweep := opts.Scale.Consumers
		if task == core.TaskSimilarity {
			sweep = opts.Scale.SimilarityConsumers
		}
		for _, n := range sweep {
			srcs, err := opts.makeSources(n, fmt.Sprintf("fig11-%v", task), true, false)
			if err != nil {
				return nil, err
			}
			colE := colstore.New(filepath.Join(opts.WorkDir, fmt.Sprintf("fig11-col-%v-%d", task, n)))
			if _, err := colE.Load(srcs.unpartRPL); err != nil {
				return nil, err
			}
			dCol, err := timeEngine(&opts, colE, core.Spec{Task: task, Workers: 8})
			if err != nil {
				return nil, err
			}
			// Cluster engines read the series-per-line layout (the format
			// that performed best, §5.5).
			_, hive, spark, err := clusterPair(nodes, srcs.unpartSPL, nil)
			if err != nil {
				return nil, err
			}
			dSpark, err := timeEngine(&opts, spark, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			dHive, err := timeEngine(&opts, hive, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			rep.AddRow(task.String(), fmt.Sprint(n), fmtDur(dCol), fmtDur(dSpark), fmtDur(dHive))
		}
	}
	return rep, nil
}

// Fig12 regenerates Figure 12: throughput per server — households
// processed per second divided by the number of servers.
func Fig12(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	n := opts.Scale.BaseConsumers
	rep := &Report{
		ID:      "fig12",
		Title:   fmt.Sprintf("Throughput per server (households/s/server, %d consumers)", n),
		Columns: []string{"task", "colstore (1 server)", "spark (/node)", "hive (/node)"},
		Notes: []string{
			"expected shape: colstore competitive or better per server, especially on histogram",
		},
	}
	srcs, err := opts.makeSources(n, "fig12", true, false)
	if err != nil {
		return nil, err
	}
	colE := colstore.New(filepath.Join(opts.WorkDir, "fig12-col"))
	if _, err := colE.Load(srcs.unpartRPL); err != nil {
		return nil, err
	}
	_, hive, spark, err := clusterPair(nodes, srcs.unpartSPL, nil)
	if err != nil {
		return nil, err
	}
	for _, task := range core.Tasks {
		dCol, err := timeEngine(&opts, colE, core.Spec{Task: task, Workers: 8})
		if err != nil {
			return nil, err
		}
		dSpark, err := timeEngine(&opts, spark, core.Spec{Task: task})
		if err != nil {
			return nil, err
		}
		dHive, err := timeEngine(&opts, hive, core.Spec{Task: task})
		if err != nil {
			return nil, err
		}
		perServer := func(d time.Duration, servers int) string {
			if d <= 0 {
				return "inf"
			}
			return fmt.Sprintf("%.1f", float64(n)/d.Seconds()/float64(servers))
		}
		rep.AddRow(task.String(), perServer(dCol, 1), perServer(dSpark, nodes), perServer(dHive, nodes))
	}
	return rep, nil
}

// formatExecTimes regenerates the execution-time figures for one data
// format (Figure 13 for format 1, Figure 16 for format 2).
func formatExecTimes(opts Options, id, title string, write func(n int) (*meterdata.Source, error)) (*Report, error) {
	nodes := maxInt(opts.Scale.ClusterNodes)
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"task", "consumers", "spark", "hive"},
	}
	for _, task := range core.Tasks {
		sweep := opts.Scale.Consumers
		if task == core.TaskSimilarity {
			sweep = opts.Scale.SimilarityConsumers
		}
		for _, n := range sweep {
			src, err := write(n)
			if err != nil {
				return nil, err
			}
			_, hive, spark, err := clusterPair(nodes, src, nil)
			if err != nil {
				return nil, err
			}
			dSpark, err := timeEngine(&opts, spark, core.Spec{Task: task})
			if err != nil {
				return nil, fmt.Errorf("%s %v spark: %w", id, task, err)
			}
			dHive, err := timeEngine(&opts, hive, core.Spec{Task: task})
			if err != nil {
				return nil, fmt.Errorf("%s %v hive: %w", id, task, err)
			}
			rep.AddRow(task.String(), fmt.Sprint(n), fmtDur(dSpark), fmtDur(dHive))
		}
	}
	return rep, nil
}

// Fig13 regenerates Figure 13: Spark vs Hive execution times on data
// format 1 (one reading per line; needs a shuffle).
func Fig13(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	rep, err := formatExecTimes(opts, "fig13",
		"Execution times, data format 1 (reading per line, shuffle required)",
		func(n int) (*meterdata.Source, error) {
			srcs, err := opts.makeSources(n, "fig13", false, false)
			if err != nil {
				return nil, err
			}
			return srcs.unpartRPL, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"expected shape: spark faster on similarity (broadcast join); close elsewhere")
	return rep, nil
}

// Fig16 regenerates Figure 16: Spark vs Hive on data format 2 (one
// series per line; map-only).
func Fig16(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	rep, err := formatExecTimes(opts, "fig16",
		"Execution times, data format 2 (series per line, map-only)",
		func(n int) (*meterdata.Source, error) {
			srcs, err := opts.makeSources(n, "fig16", true, false)
			if err != nil {
				return nil, err
			}
			return srcs.unpartSPL, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"expected shape: faster than format 1 for 3-line/PAR/histogram (no shuffle); spark and hive close")
	return rep, nil
}

// nodeSweep regenerates the speedup figures (14, 17, 19): execution
// time versus worker-node count, relative to the smallest cluster.
func nodeSweep(opts Options, id, title string, src *meterdata.Source, hiveOpts []mapreduce.Option, tasks []core.Task) (*Report, error) {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"task", "nodes", "spark", "spark speedup", "hive", "hive speedup"},
		Notes:   []string{"speedup is relative to the smallest node count (paper: relative to 4 nodes)"},
	}
	type base struct{ spark, hive time.Duration }
	bases := map[core.Task]base{}
	for _, nodes := range opts.Scale.ClusterNodes {
		_, hive, spark, err := clusterPair(nodes, src, hiveOpts)
		if err != nil {
			return nil, err
		}
		for _, task := range tasks {
			dSpark, err := timeEngine(&opts, spark, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			dHive, err := timeEngine(&opts, hive, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			b, ok := bases[task]
			if !ok {
				b = base{spark: dSpark, hive: dHive}
				bases[task] = b
			}
			rep.AddRow(task.String(), fmt.Sprint(nodes),
				fmtDur(dSpark), fmtSpeedup(b.spark, dSpark),
				fmtDur(dHive), fmtSpeedup(b.hive, dHive))
		}
	}
	return rep, nil
}

// Fig14 regenerates Figure 14: speedup vs node count on format 1.
func Fig14(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig14", false, false)
	if err != nil {
		return nil, err
	}
	return nodeSweep(opts, "fig14", "Speedup with cluster size, data format 1",
		srcs.unpartRPL, nil, core.Tasks)
}

// Fig15 regenerates Figure 15: cluster memory consumption of Spark and
// Hive as data grows (format 1), from the simulator's per-node
// accounting.
func Fig15(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	rep := &Report{
		ID:      "fig15",
		Title:   "Cluster memory consumption (peak accounted bytes, data format 1)",
		Columns: []string{"task", "consumers", "spark", "hive"},
		Notes:   []string{"expected shape: spark uses more memory than hive, gap grows with data size"},
	}
	for _, task := range []core.Task{core.TaskThreeLine, core.TaskPAR, core.TaskHistogram, core.TaskSimilarity} {
		sweep := opts.Scale.Consumers
		if task == core.TaskSimilarity {
			sweep = opts.Scale.SimilarityConsumers
		}
		for _, n := range sweep {
			srcs, err := opts.makeSources(n, "fig15", false, false)
			if err != nil {
				return nil, err
			}
			fsys, hive, spark, err := clusterPair(nodes, srcs.unpartRPL, nil)
			if err != nil {
				return nil, err
			}
			cluster := fsys.Cluster()
			cluster.ResetStats()
			if _, err := opts.run(spark, core.Spec{Task: task}); err != nil {
				return nil, err
			}
			sparkMem := cluster.Stats().PeakMemory()
			cluster.ResetStats()
			if _, err := opts.run(hive, core.Spec{Task: task}); err != nil {
				return nil, err
			}
			hiveMem := cluster.Stats().PeakMemory()
			rep.AddRow(task.String(), fmt.Sprint(n), fmtMB(sparkMem), fmtMB(hiveMem))
		}
	}
	return rep, nil
}

// Fig17 regenerates Figure 17: speedup vs node count on format 2.
func Fig17(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig17", true, false)
	if err != nil {
		return nil, err
	}
	return nodeSweep(opts, "fig17", "Speedup with cluster size, data format 2 (map-only)",
		srcs.unpartSPL, nil, core.Tasks)
}

// Fig18 regenerates Figure 18: data format 3 — many whole-household
// files — comparing Hive's UDTF (map-side aggregation) against Hive's
// UDAF (reduce) and Spark, sweeping the file count.
func Fig18(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	rep := &Report{
		ID:      "fig18",
		Title:   "Execution times, data format 3 (whole-household files)",
		Columns: []string{"task", "files", "spark", "hive UDTF", "hive UDAF"},
		Notes: []string{
			"expected shape: hive UDTF fastest (map-only); hive insensitive to file count; spark degrades as files grow",
			"similarity is omitted, as in the paper (pairwise distances cannot be one UDTF pass)",
		},
	}
	// The dataset must hold at least as many consumers as the largest
	// file count, or WriteGrouped clamps the sweep.
	consumers := opts.Scale.BaseConsumers
	if m := maxInt(opts.Scale.FileCounts); m > consumers {
		consumers = m
	}
	ds, err := opts.makeDataset(consumers)
	if err != nil {
		return nil, err
	}
	for _, task := range []core.Task{core.TaskThreeLine, core.TaskPAR, core.TaskHistogram} {
		for _, files := range opts.Scale.FileCounts {
			dir := filepath.Join(opts.WorkDir, fmt.Sprintf("fig18-%v-%d", task, files))
			src, err := meterdata.WriteGrouped(dir, ds, files)
			if err != nil {
				return nil, err
			}
			_, hiveUDTF, spark, err := clusterPair(nodes, src, []mapreduce.Option{mapreduce.WithStyle(mapreduce.StyleUDTF)})
			if err != nil {
				return nil, err
			}
			dSpark, err := timeEngine(&opts, spark, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			dUDTF, err := timeEngine(&opts, hiveUDTF, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			_, hiveUDAF, _, err := clusterPair(nodes, src, []mapreduce.Option{mapreduce.WithStyle(mapreduce.StyleUDAF)})
			if err != nil {
				return nil, err
			}
			dUDAF, err := timeEngine(&opts, hiveUDAF, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			rep.AddRow(task.String(), fmt.Sprint(files), fmtDur(dSpark), fmtDur(dUDTF), fmtDur(dUDAF))
		}
	}
	return rep, nil
}

// Fig19 regenerates Figure 19: speedup vs node count on format 3
// (UDTF plan).
func Fig19(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	// Use the middle file count: enough files that every node sweep point
	// can fill its task slots (10 non-splittable files could never use
	// more than 10 slots, hiding any scaling).
	files := opts.Scale.FileCounts[len(opts.Scale.FileCounts)/2]
	consumers := opts.Scale.BaseConsumers
	if files > consumers {
		consumers = files
	}
	ds, err := opts.makeDataset(consumers)
	if err != nil {
		return nil, err
	}
	src, err := meterdata.WriteGrouped(filepath.Join(opts.WorkDir, "fig19"), ds, files)
	if err != nil {
		return nil, err
	}
	return nodeSweep(opts, "fig19",
		fmt.Sprintf("Speedup with cluster size, data format 3 (%d files, UDTF)", files),
		src, []mapreduce.Option{mapreduce.WithStyle(mapreduce.StyleUDTF)},
		[]core.Task{core.TaskThreeLine, core.TaskPAR, core.TaskHistogram})
}

// TaskSweep regenerates the paper's footnote 8 observation: Hive
// benefits from more reduce tasks up to a point, while Spark is largely
// insensitive to its partition count.
func TaskSweep(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "tasksweep", false, false)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "tasksweep",
		Title:   "Reduce-task count sweep (3-line, data format 1)",
		Columns: []string{"reduce tasks", "hive"},
		Notes:   []string{"expected shape: time falls as tasks grow toward the slot count, then flattens"},
	}
	for _, reducers := range []int{1, 2, nodes, nodes * 4} {
		_, hive, _, err := clusterPair(nodes, srcs.unpartRPL,
			[]mapreduce.Option{mapreduce.WithReducers(reducers)})
		if err != nil {
			return nil, err
		}
		d, err := timeEngine(&opts, hive, core.Spec{Task: core.TaskThreeLine})
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprint(reducers), fmtDur(d))
	}
	return rep, nil
}

func maxInt(xs []int) int {
	if len(xs) == 0 {
		return 4
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
