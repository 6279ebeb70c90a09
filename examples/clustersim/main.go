// Cluster simulation: run the distributed engines (the Hive and Spark
// analogues) side by side on a simulated 8-node cluster, compare their
// run times, network traffic and memory on the same workload, and show
// the effect of the data format — a miniature of the paper's §5.4.
//
//	go run ./examples/clustersim
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/cluster"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Generate a workload with the paper's data generator.
	seedDS, err := seed.Generate(seed.Config{Consumers: 15, Days: 180, Seed: 3})
	if err != nil {
		return err
	}
	gen, err := generator.New(seedDS, generator.Config{Clusters: 5, Seed: 3})
	if err != nil {
		return err
	}
	ds, err := gen.Dataset(60, seedDS.Temperature)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "clustersim-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Write both cluster formats.
	format1, err := meterdata.WriteUnpartitioned(dir+"/f1", ds, meterdata.FormatReadingPerLine)
	if err != nil {
		return err
	}
	format2, err := meterdata.WriteUnpartitioned(dir+"/f2", ds, meterdata.FormatSeriesPerLine)
	if err != nil {
		return err
	}

	for _, f := range []struct {
		name string
		src  *meterdata.Source
	}{
		{"format 1 (reading per line, shuffle needed)", format1},
		{"format 2 (series per line, map-only)", format2},
	} {
		fmt.Printf("== %s ==\n", f.name)
		if err := compare(f.src); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func compare(src *meterdata.Source) error {
	sim, err := distsim.New(distsim.Config{
		Nodes: 8, SlotsPerNode: 4,
		TransferLatency: 50 * time.Microsecond,
		BytesPerSecond:  1 << 30,
	})
	if err != nil {
		return err
	}
	fsys, err := dfs.New(sim, dfs.WithBlockSize(128<<10))
	if err != nil {
		return err
	}
	hive := cluster.NewHive(fsys, 0, false)
	spark := cluster.NewSpark(fsys)
	if _, err := hive.Load(src); err != nil {
		return err
	}
	if _, err := spark.Load(src); err != nil {
		return err
	}

	fmt.Printf("  %-10s  %-12s %-14s %-12s  %-12s %-14s %-12s\n",
		"task", "spark", "spark net", "spark mem", "hive", "hive net", "hive mem")
	for _, task := range core.Tasks {
		row := fmt.Sprintf("  %-10s", task)
		for _, eng := range []core.Engine{spark, hive} {
			sim.ResetStats()
			start := time.Now()
			res, err := eng.Run(core.Spec{Task: task, K: 5})
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			st := sim.Stats()
			row += fmt.Sprintf("  %-12s %-14s %-12s",
				elapsed.Round(time.Millisecond),
				fmt.Sprintf("%.1f MiB", float64(st.BytesMoved)/(1<<20)),
				fmt.Sprintf("%.1f MiB", float64(st.PeakMemory())/(1<<20)))
			if res.Count() == 0 {
				return fmt.Errorf("%s produced no results", eng.Name())
			}
		}
		fmt.Println(row)
	}
	return nil
}
