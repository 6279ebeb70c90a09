package benchmark

import (
	"fmt"
	"sort"
)

// Experiment is a runnable experiment regenerating one paper table or
// figure.
type Experiment struct {
	// ID is the registry key ("fig4", "table1", ...).
	ID string
	// Description is a one-line summary.
	Description string
	// Run executes the experiment.
	Run func(Options) (*Report, error)
}

// registry maps experiment IDs to implementations.
var registry = map[string]Experiment{}

func register(id, desc string, run func(Options) (*Report, error)) {
	registry[id] = Experiment{ID: id, Description: desc, Run: run}
}

func init() {
	register("table1", "statistical functions built into each platform", Table1)
	register("fig4", "data loading times, partitioned vs unpartitioned", Fig4)
	register("fig5", "partitioning impact on the file-based engine (3-line)", Fig5)
	register("fig6", "cold vs warm start with T1/T2/T3 phase breakdown", Fig6)
	register("phases", "pipeline extract/compute/emit breakdown (3-line, cold)", Phases)
	register("fig7", "single-threaded execution times, all tasks x engines", Fig7)
	register("fig8", "memory consumption per task and engine", Fig8)
	register("fig9", "row layout vs array layout in the row store", Fig9)
	register("fig10", "multi-core speedup per task", Fig10)
	register("fig11", "single-server column store vs cluster engines", Fig11)
	register("fig12", "throughput per server", Fig12)
	register("fig13", "Spark vs Hive, data format 1 execution times", Fig13)
	register("fig14", "speedup with cluster size, format 1", Fig14)
	register("fig15", "cluster memory consumption, format 1", Fig15)
	register("fig16", "Spark vs Hive, data format 2 execution times", Fig16)
	register("fig17", "speedup with cluster size, format 2", Fig17)
	register("fig18", "data format 3: UDTF vs UDAF vs Spark, file-count sweep", Fig18)
	register("fig19", "speedup with cluster size, format 3", Fig19)
	register("updates", "cost of appending one day to every series (§3 future work)", Updates)
	register("streaming", "streaming anomaly alerts (§6 future work)", Streaming)
	register("matmul", "matrix multiplication micro-benchmark (§5.3.2)", MatMul)
	register("tasksweep", "reduce-task count sweep (footnote 8)", TaskSweep)
	register("faults", "throughput vs injected fault rate per engine (containment cost)", Faults)
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("benchmark: unknown experiment %q (try `list`)", id)
	}
	return e, nil
}

// All returns every experiment sorted by ID (figures in numeric order).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return experimentOrder(out[i].ID) < experimentOrder(out[j].ID) })
	return out
}

// experimentOrder sorts table1 first, figures numerically, extras last.
func experimentOrder(id string) int {
	switch id {
	case "table1":
		return 0
	case "updates":
		return 99
	case "streaming":
		return 98
	case "matmul":
		return 100
	case "tasksweep":
		return 101
	case "faults":
		return 102
	case "phases":
		return 97
	}
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n
	}
	return 999
}
