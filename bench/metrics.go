package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric the benchmark reports: its unit, which
// direction is better and, for an end-to-end metric, the share of the
// parent's median by which it may worsen before a change is a
// regression. These tables are the single source of BENCHMARK.json
// (-manifest prints it; bench_test.go pins the file to them).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, because every workload runs the whole life cycle
// (four tasks, durable append, fresh query, crash recovery) over its own
// store configuration.
//
// Load throughput, durable append throughput and ack latency are users'
// metrics too, but they are bound by fsync and file writes, and on a
// shared virtual disk ten runs of the same code spread by 25 to 57 %:
// more than the widest bound a metric may have. They are per-layer
// metrics (<engine>.load_readings_per_s, .append_readings_per_s,
// .ack_p50_ms) until measured on a disk of their own; what a change
// does to them is claimed through the counts that repeat exactly
// (wal.fsyncs_per_1k_readings, wal.bytes_per_reading).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"stored_bytes_per_raw_byte", "ratio", lower, 0.15},
	{"histogram_readings_per_s", "1/s", higher, 0.25},
	{"threeline_readings_per_s", "1/s", higher, 0.25},
	{"par_readings_per_s", "1/s", higher, 0.25},
	{"similarity_pairs_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"freshness_s", "s", lower, 0.25},
	{"recovery_s", "s", lower, 0.25},
}

// scanTasks are the three per-consumer tasks, under the names their
// metrics carry.
var scanTasks = []string{"histogram", "threeline", "par"}

// liveEngines are the stores whose live path a workload can drive; the
// live-layer metrics are reported under the engine's own name and read
// zero on a workload that runs the other engine.
var liveEngines = []string{"colstore", "rowstore"}

// perLayer is measured by the traced run: each name starts with the
// module it belongs to. A layer a workload bypasses reports zero.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "generator.series_s", Unit: "s", Better: lower},
		{Name: "generator.readings_per_s", Unit: "1/s", Better: higher},
		{Name: "meterdata.write_text_s", Unit: "s", Better: lower},
		{Name: "meterdata.scan_readings_per_s", Unit: "1/s", Better: higher},
		{Name: "meterdata.text_bytes_per_reading", Unit: "B", Better: lower},
		{Name: "colcodec.encode_ns_per_reading", Unit: "ns", Better: lower},
		{Name: "colcodec.decode_ns_per_reading", Unit: "ns", Better: lower},
		{Name: "colcodec.summarize_ns_per_reading", Unit: "ns", Better: lower},
		{Name: "colcodec.bytes_per_reading", Unit: "B", Better: lower},
		{Name: "colstore.segwrite_s", Unit: "s", Better: lower},
		{Name: "colstore.load_readings_per_s", Unit: "1/s", Better: higher},
		{Name: "colstore.open_s", Unit: "s", Better: lower},
		{Name: "colstore.cursor_drain_s", Unit: "s", Better: lower},
		{Name: "colstore.cursor_drain_readings_per_s", Unit: "1/s", Better: higher},
		{Name: "colstore.summary_drain_s", Unit: "s", Better: lower},
		{Name: "colstore.pager_hits", Unit: "count", Better: higher},
		{Name: "colstore.pager_misses", Unit: "count", Better: lower},
		{Name: "colstore.pager_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "colstore.pager_resident_mb", Unit: "MB", Better: lower},
		{Name: "colstore.meta_bytes", Unit: "B", Better: lower},
		{Name: "colstore.storage_bytes", Unit: "B", Better: lower},
		{Name: "rowstore.load_s", Unit: "s", Better: lower},
		{Name: "rowstore.load_readings_per_s", Unit: "1/s", Better: higher},
		{Name: "rowstore.open_s", Unit: "s", Better: lower},
		{Name: "rowstore.cursor_drain_s", Unit: "s", Better: lower},
		{Name: "rowstore.cursor_drain_readings_per_s", Unit: "1/s", Better: higher},
		{Name: "rowstore.pool_hits", Unit: "count", Better: higher},
		{Name: "rowstore.pool_misses", Unit: "count", Better: lower},
		{Name: "rowstore.pool_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "rowstore.storage_bytes_per_reading", Unit: "B", Better: lower},
	}
	for _, e := range liveEngines {
		defs = append(defs,
			metricDef{Name: e + ".append_readings_per_s", Unit: "1/s", Better: higher},
			metricDef{Name: e + ".append_busy_s", Unit: "s", Better: lower},
			metricDef{Name: e + ".ack_p50_ms", Unit: "ms", Better: lower},
			metricDef{Name: e + ".ack_p99_ms", Unit: "ms", Better: lower},
			metricDef{Name: e + ".ack_p999_ms", Unit: "ms", Better: lower},
			metricDef{Name: e + ".ack_max_ms", Unit: "ms", Better: lower},
			metricDef{Name: e + ".snapshot_drain_s", Unit: "s", Better: lower},
			metricDef{Name: e + ".checkpoint_s", Unit: "s", Better: lower},
			metricDef{Name: e + ".checkpoint_bytes", Unit: "B", Better: lower},
			metricDef{Name: e + ".reopen_s", Unit: "s", Better: lower},
			metricDef{Name: e + ".append_nowal_readings_per_s", Unit: "1/s", Better: higher},
			metricDef{Name: e + ".wal_overhead_x", Unit: "x", Better: lower},
		)
	}
	defs = append(defs,
		metricDef{Name: "wal.fsyncs", Unit: "count", Better: lower},
		metricDef{Name: "wal.fsyncs_per_1k_readings", Unit: "count", Better: lower},
		metricDef{Name: "wal.fsync_p50_ms", Unit: "ms", Better: lower},
		metricDef{Name: "wal.fsync_p99_ms", Unit: "ms", Better: lower},
		metricDef{Name: "wal.fsync_total_s", Unit: "s", Better: lower},
		metricDef{Name: "wal.write_calls", Unit: "count", Better: lower},
		metricDef{Name: "wal.bytes_written", Unit: "B", Better: lower},
		metricDef{Name: "wal.bytes_per_reading", Unit: "B", Better: lower},
		metricDef{Name: "wal.dir_syncs", Unit: "count", Better: lower},
		metricDef{Name: "wal.size_bytes_at_crash", Unit: "B", Better: lower},
		metricDef{Name: "wal.replay_s", Unit: "s", Better: lower},
		metricDef{Name: "wal.replay_readings_per_s", Unit: "1/s", Better: higher},
	)
	for _, t := range scanTasks {
		defs = append(defs,
			metricDef{Name: "exec." + t + ".extract_s", Unit: "s", Better: lower},
			metricDef{Name: "exec." + t + ".compute_s", Unit: "s", Better: lower},
			metricDef{Name: "exec." + t + ".emit_s", Unit: "s", Better: lower},
			metricDef{Name: "exec." + t + ".w1_s", Unit: "s", Better: lower},
			metricDef{Name: "exec." + t + ".speedup_wN", Unit: "x", Better: higher},
			metricDef{Name: "exec." + t + ".warm_s", Unit: "s", Better: lower},
			metricDef{Name: "exec." + t + ".unattributed_share", Unit: "ratio", Better: lower},
		)
	}
	defs = append(defs,
		metricDef{Name: "exec.threeline.t1_quantiles_s", Unit: "s", Better: lower},
		metricDef{Name: "exec.threeline.t2_regression_s", Unit: "s", Better: lower},
		metricDef{Name: "exec.threeline.t3_adjust_s", Unit: "s", Better: lower},
		metricDef{Name: "exec.histogram.summary_blocks", Unit: "count", Better: higher},
		metricDef{Name: "exec.histogram.decoded_blocks", Unit: "count", Better: lower},
		metricDef{Name: "exec.par.summary_blocks", Unit: "count", Better: higher},
		metricDef{Name: "exec.par.decoded_blocks", Unit: "count", Better: lower},
		metricDef{Name: "histogram.compute_ns_per_reading", Unit: "ns", Better: lower},
		metricDef{Name: "threeline.compute_ns_per_reading", Unit: "ns", Better: lower},
		metricDef{Name: "par.compute_ns_per_reading", Unit: "ns", Better: lower},
		metricDef{Name: "similarity.kernel_pairs_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "bench.trace_overhead_share", Unit: "ratio", Better: lower},
		metricDef{Name: "bench.trace_overhead_threeline", Unit: "ratio", Better: lower},
		metricDef{Name: "bench.trace_overhead_append", Unit: "ratio", Better: lower},
		metricDef{Name: "bench.spans", Unit: "count", Better: lower},
		metricDef{Name: "bench.machine_speed", Unit: "x", Better: higher},
	)
	return defs
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds, so none is written
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}

// recorder collects one run's samples, metric values and operation
// counts. An operation is one load, task run, append call, snapshot
// query, checkpoint or recovery; it fails on an error, a quarantined
// consumer or a result that does not match the reference.
type recorder struct {
	samples   map[string][]float64
	values    map[string]float64
	counts    map[string]int // samples behind a value, for the report
	attempted int
	failed    int
	failures  []string // first few, for the report
}

func newRecorder() *recorder {
	return &recorder{
		samples: map[string][]float64{},
		values:  map[string]float64{},
		counts:  map[string]int{},
	}
}

// op counts one operation; a non-nil err makes it a failed one.
func (r *recorder) op(what string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

func (r *recorder) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

func (r *recorder) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// setMedian sets a metric to the median of a sample series, zero when
// the series is empty.
func (r *recorder) setMedian(name, series string) {
	s := r.samples[series]
	r.set(name, median(s), len(s))
}

// setRate sets a metric to work ÷ median repetition time.
func (r *recorder) setRate(name string, work float64, series string) {
	s := r.samples[series]
	m := median(s)
	if m <= 0 {
		r.set(name, 0, len(s))
		return
	}
	r.set(name, work/m, len(s))
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the reported metrics: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one. An
// end-to-end metric that was never set, or is not a positive finite
// number, is an error; a per-layer metric never set reads zero (the
// workload bypassed that layer).
func (r *recorder) result(traced bool) (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", d.Name)
		}
		if !traced && (!ok || v <= 0) {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// report prints the metrics a run set, by name with unit and sample
// count, in declaration order.
func (r *recorder) report(w *bufio.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = append(append([]metricDef{}, endToEnd...), perLayer...)
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s n=%d\n", d.Name, v, d.Unit, r.counts[d.Name])
	}
	if yard := r.samples["yardstick"]; len(yard) > 0 {
		fmt.Fprintf(w, "  machine speed %.6g x the reference (yardstick %.6g s, n=%d); end-to-end times are on the reference's scale\n",
			r.values["bench.machine_speed"], median(yard), len(yard))
	}
	// Latencies: the median and the highest percentile the sample
	// supports, on this machine's own scale.
	for _, series := range []string{"ack", "freshness", "recovery"} {
		xs := r.samples[series]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-42s p50 %.6g s", series+" latency, this machine", median(xs))
		if p := tailPercentile(len(xs)); p > 0.5 {
			tail, _ := percentile(xs, p)
			fmt.Fprintf(w, ", p%g %.6g s", p*100, tail)
		}
		fmt.Fprintf(w, ", n=%d\n", len(xs))
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), zero for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule, and whether the sample supports it: a percentile
// is reported only when at least ten samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= 10
}

// tailPercentile names the highest of p90, p99 and p99.9 that n
// samples support, and 0.5 when none is.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.99, 0.999} {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}
