package benchmark

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/cluster"
	"github.com/smartmeter/smartbench/internal/meterdata"
)

// TestClusterFigureShapes holds the cluster figures to the shapes that
// are counts, not times, on the figures' own cluster configuration at the
// small scale: bytes moved per format and per plan (Figures 13, 16, 18)
// and accounted memory per profile (Figure 15).
func TestClusterFigureShapes(t *testing.T) {
	opts := smallOpts(t)
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "shapes", true, false)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := meterdata.WriteGrouped(filepath.Join(opts.WorkDir, "shapes-grouped"), srcs.ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	// moved loads src into a Spark and a Hive engine (and, when asked, a
	// Hive forced onto the shuffle plan) and reports the bytes one
	// histogram run of each moves.
	moved := func(src *meterdata.Source, forced bool) map[string]int64 {
		fsys, spark, hive, err := sparkAndHive(nodes, src)
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]*cluster.Engine{"spark": spark, "hive": hive}
		if forced {
			engines["hive forced shuffle"] = cluster.NewHive(fsys, 0, true)
			if _, err := engines["hive forced shuffle"].Load(src); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string]int64{}
		for name, e := range engines {
			fsys.Cluster().ResetStats()
			if _, err := opts.run(e, core.Spec{Task: core.TaskHistogram}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = fsys.Cluster().Stats().BytesMoved
		}
		return out
	}
	f1, f2, f3 := moved(srcs.unpartRPL, false), moved(srcs.unpartSPL, false), moved(grouped, true)
	for _, name := range []string{"spark", "hive"} {
		if f1[name] <= f2[name] {
			t.Errorf("%s: format 1 moved %d bytes, format 2 %d; the shuffle should dominate", name, f1[name], f2[name])
		}
	}
	if f3["hive forced shuffle"] <= f3["hive"] {
		t.Errorf("format 3: the forced shuffle plan moved %d bytes, the map-side plan %d",
			f3["hive forced shuffle"], f3["hive"])
	}

	// Figure 15 as printed: Spark above Hive in every row.
	rep, err := Fig15(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		var spark, hive float64
		if _, err := fmt.Sscanf(row[2]+" "+row[3], "%f MiB %f MiB", &spark, &hive); err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if hive <= 0 || spark <= hive {
			t.Errorf("fig15 %s/%s: spark %s, hive %s; want spark above hive", row[0], row[1], row[2], row[3])
		}
	}
}
