package benchmark

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/cluster"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/meterdata"
)

// sparkAndHive loads the source into both profiles of the cluster
// engine, sharing one fresh figure cluster of the given size.
func sparkAndHive(nodes int, src *meterdata.Source) (fsys *dfs.FS, spark, hive *cluster.Engine, err error) {
	if fsys, err = newCluster(nodes); err != nil {
		return nil, nil, nil, err
	}
	spark, hive = cluster.NewSpark(fsys), cluster.NewHive(fsys, 0, false)
	for _, e := range []*cluster.Engine{spark, hive} {
		if _, err := e.Load(src); err != nil {
			return nil, nil, nil, err
		}
	}
	return fsys, spark, hive, nil
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

// timeEngines times one cold run of the task on each engine in turn,
// leaving Workers unset so the cluster engines use every task slot.
func timeEngines(opts *Options, task core.Task, engines ...core.Engine) ([]time.Duration, error) {
	out := make([]time.Duration, len(engines))
	for i, e := range engines {
		d, err := timeEngine(opts, e, core.Spec{Task: task})
		if err != nil {
			return nil, fmt.Errorf("%v on %s: %w", task, e.Name(), err)
		}
		out[i] = d
	}
	return out, nil
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
		for _, n := range opts.Scale.sizes(task) {
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
			_, spark, hive, err := sparkAndHive(nodes, srcs.unpartSPL)
			if err != nil {
				return nil, err
			}
			d, err := timeEngines(&opts, task, spark, hive)
			if err != nil {
				return nil, err
			}
			rep.AddRow(task.String(), fmt.Sprint(n), fmtDur(dCol), fmtDur(d[0]), fmtDur(d[1]))
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
	_, spark, hive, err := sparkAndHive(nodes, srcs.unpartSPL)
	if err != nil {
		return nil, err
	}
	for _, task := range core.Tasks {
		dCol, err := timeEngine(&opts, colE, core.Spec{Task: task, Workers: 8})
		if err != nil {
			return nil, err
		}
		d, err := timeEngines(&opts, task, spark, hive)
		if err != nil {
			return nil, err
		}
		perServer := func(d time.Duration, servers int) string {
			if d <= 0 {
				return "inf"
			}
			return fmt.Sprintf("%.1f", float64(n)/d.Seconds()/float64(servers))
		}
		rep.AddRow(task.String(), perServer(dCol, 1), perServer(d[0], nodes), perServer(d[1], nodes))
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
		for _, n := range opts.Scale.sizes(task) {
			src, err := write(n)
			if err != nil {
				return nil, err
			}
			_, spark, hive, err := sparkAndHive(nodes, src)
			if err != nil {
				return nil, err
			}
			d, err := timeEngines(&opts, task, spark, hive)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			rep.AddRow(task.String(), fmt.Sprint(n), fmtDur(d[0]), fmtDur(d[1]))
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
		"expected shape: slower than format 2 (Figure 16) at every size, by a factor that grows with the data; the two profiles run the same stages, so they differ by spark's per-task dispatch charge and host noise")
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
func nodeSweep(opts Options, id, title string, src *meterdata.Source, tasks []core.Task) (*Report, error) {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"task", "nodes", "spark", "spark speedup", "hive", "hive speedup"},
		Notes:   []string{"speedup is relative to the smallest node count (paper: relative to 4 nodes)"},
	}
	bases := map[core.Task][]time.Duration{}
	for _, nodes := range opts.Scale.ClusterNodes {
		_, spark, hive, err := sparkAndHive(nodes, src)
		if err != nil {
			return nil, err
		}
		for _, task := range tasks {
			d, err := timeEngines(&opts, task, spark, hive)
			if err != nil {
				return nil, err
			}
			b, ok := bases[task]
			if !ok {
				b = d
				bases[task] = b
			}
			rep.AddRow(task.String(), fmt.Sprint(nodes),
				fmtDur(d[0]), fmtSpeedup(b[0], d[0]),
				fmtDur(d[1]), fmtSpeedup(b[1], d[1]))
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
		srcs.unpartRPL, core.Tasks)
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
		for _, n := range opts.Scale.sizes(task) {
			srcs, err := opts.makeSources(n, "fig15", false, false)
			if err != nil {
				return nil, err
			}
			fsys, spark, hive, err := sparkAndHive(nodes, srcs.unpartRPL)
			if err != nil {
				return nil, err
			}
			var peak [2]int64
			for i, e := range []*cluster.Engine{spark, hive} {
				fsys.Cluster().ResetStats()
				if _, err := opts.run(e, core.Spec{Task: task}); err != nil {
					return nil, err
				}
				peak[i] = fsys.Cluster().Stats().PeakMemory()
			}
			rep.AddRow(task.String(), fmt.Sprint(n), fmtMB(peak[0]), fmtMB(peak[1]))
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
		srcs.unpartSPL, core.Tasks)
}

// Fig18 regenerates Figure 18: data format 3 — many whole-household
// files — comparing Hive's UDTF (map-side assembly) against Hive's UDAF
// (the shuffle plan, forced) and Spark, sweeping the file count.
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
			"expected shape: the map-side plans (spark, hive UDTF) beat the shuffle plan (hive UDAF) at every file count, and speed up as files grow toward the slot count (a non-splittable file is one task); past it spark trails hive UDTF by its per-task dispatch charge",
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
			// On grouped files the engines assemble map-side (Hive's UDTF)
			// unless Hive is forced onto the shuffle plan (its UDAF).
			fsys, spark, hiveUDTF, err := sparkAndHive(nodes, src)
			if err != nil {
				return nil, err
			}
			hiveUDAF := cluster.NewHive(fsys, 0, true)
			if _, err := hiveUDAF.Load(src); err != nil {
				return nil, err
			}
			d, err := timeEngines(&opts, task, spark, hiveUDTF, hiveUDAF)
			if err != nil {
				return nil, err
			}
			rep.AddRow(task.String(), fmt.Sprint(files), fmtDur(d[0]), fmtDur(d[1]), fmtDur(d[2]))
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
		src, []core.Task{core.TaskThreeLine, core.TaskPAR, core.TaskHistogram})
}

// TaskSweep regenerates the paper's footnote 8 observation: Hive
// benefits from more reduce tasks up to a point.
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
		fsys, err := newCluster(nodes)
		if err != nil {
			return nil, err
		}
		hive := cluster.NewHive(fsys, reducers, false)
		if _, err := hive.Load(srcs.unpartRPL); err != nil {
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
