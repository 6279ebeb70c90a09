package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// The per-layer probes run only in a traced run, after the timed
// phases. Each times calls into one layer's public functions, or reads
// counters the layer publishes; none of them feeds an end-to-end metric.

// probe times fn probeReps times, with a collection before each, and
// records the samples under name.
func (r *run) probe(name string, fn func() error) error {
	for i := 0; i < probeReps; i++ {
		runtime.GC()
		sp := r.tr.begin(name)
		err := fn()
		d := sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.sample(name, d)
	}
	return nil
}

// withBulk runs fn over a fresh attach of the bulk store.
func (r *run) withBulk(fn func(e engine) error) error {
	e, err := r.st.open(r.bulkDir, openMode{})
	if err != nil {
		return err
	}
	return errors.Join(fn(e), r.st.close(e))
}

func drain(cur core.Cursor) error {
	for {
		if _, err := cur.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return cur.Close()
			}
			_ = cur.Close() // the read error is the one to report
			return err
		}
	}
}

// drainCursors reads every series out of the store through up to max
// partition cursors at once and computes nothing: the extraction
// ceiling of every task.
func drainCursors(e engine, max int) error {
	curs, err := e.NewCursors(max)
	if err != nil {
		return err
	}
	errs := make([]error, len(curs))
	var wg sync.WaitGroup
	for i, cur := range curs {
		wg.Add(1)
		go func(i int, cur core.Cursor) {
			defer wg.Done()
			errs[i] = drain(cur)
		}(i, cur)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func drainSummaries(e *colstore.Engine) error {
	cur, err := e.NewSummaryCursor()
	if err != nil {
		return err
	}
	for {
		if _, _, err := cur.NextSummary(); err != nil {
			if errors.Is(err, io.EOF) {
				return cur.Close()
			}
			_ = cur.Close() // the read error is the one to report
			return err
		}
	}
}

// drainSnapshot reads a snapshot of the live store to its end with no
// kernel behind it: the extraction share of freshness_s.
func (r *run) drainSnapshot(e engine) error {
	sp := r.tr.begin(r.st.name() + ".snapshot_drain")
	cur, _, err := e.Snapshot()
	if err == nil {
		err = drain(cur)
	}
	r.sample("snapshot_drain", sp.end())
	return err
}

// replayProbe copies the log of the store that just crashed and times
// wal.Open + Replay over the copy into a sink that does nothing: the
// log's own share of recovery_s.
func (r *run) replayProbe() error {
	logDir := filepath.Join(r.liveDir, "wal")
	size, err := dirBytes(logDir)
	if err != nil {
		return err
	}
	r.rec.set("wal.size_bytes_at_crash", float64(size), 1)
	entries, err := os.ReadDir(logDir)
	if err != nil {
		return err
	}
	for i := 0; i < probeReps; i++ {
		tmp := filepath.Join(r.root, "wal-copy")
		if err := copyDir(logDir, tmp); err != nil {
			return err
		}
		var readings int
		sp := r.tr.begin("wal.replay")
		lg, err := wal.Open(wal.Options{Dir: tmp, Shards: len(entries), Policy: wal.SyncBatch})
		if err == nil {
			err = lg.Replay(func(_ int, batch []core.Reading) error {
				readings += len(batch)
				return nil
			})
			err = errors.Join(err, lg.Close())
		}
		r.sample("wal.replay", sp.end())
		if err != nil {
			return fmt.Errorf("wal replay probe: %w", err)
		}
		r.live.replayReadings = readings
		if err := os.RemoveAll(tmp); err != nil {
			return err
		}
	}
	return nil
}

// nowalProbe appends one cycle to a second live store with no log
// under it: the base wal_overhead_x is taken against.
func (r *run) nowalProbe() error {
	e, err := r.st.open(r.nowalDir, openMode{live: true})
	if err != nil {
		return err
	}
	from := r.sz.baseDays * timeseries.HoursPerDay
	r.tr.enable(false) // these calls are not the workload's appends
	wall, _, err := r.appendHours(e, from, from+r.sz.cycleHours, "")
	r.tr.enable(true)
	if err == nil {
		_, err = r.snapshotHistogram(e, from+r.sz.cycleHours)
	}
	r.sample("append_nowal", wall)
	return errors.Join(err, r.st.close(e))
}

// sampleSeries is the slice of the inputs the codec and kernel probes
// run over.
func (r *run) sampleSeries() *timeseries.Dataset {
	return r.in.prefix(min(codecSample, len(r.in.series)), r.in.hours())
}

// probeCodec encodes, decodes and summarizes the sample in blocks of
// the segment format's size.
func (r *run) probeCodec() error {
	ds := r.sampleSeries()
	var blocks [][]float64
	for _, s := range ds.Series {
		for lo := 0; lo < len(s.Readings); lo += colstore.DefaultBlockRows {
			blocks = append(blocks, s.Readings[lo:min(lo+colstore.DefaultBlockRows, len(s.Readings))])
		}
	}
	payloads := make([][]byte, len(blocks))
	var enc colcodec.Encoder
	if err := r.probe("colcodec.encode", func() error {
		for i, b := range blocks {
			payloads[i] = enc.AppendValues(payloads[i][:0], b)
		}
		return nil
	}); err != nil {
		return err
	}
	var bytes int
	for _, p := range payloads {
		bytes += len(p)
	}
	readings := float64(len(ds.Series) * r.in.hours())
	r.rec.set("colcodec.bytes_per_reading", float64(bytes)/readings, 1)
	dst := make([]float64, colstore.DefaultBlockRows)
	if err := r.probe("colcodec.decode", func() error {
		for _, p := range payloads {
			if _, _, err := colcodec.DecodeValues(p, dst); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i, p := range payloads {
		if out, _, err := colcodec.DecodeValues(p, dst); err != nil || !sameFloats(out, blocks[i]) {
			return fmt.Errorf("block %d does not decode to what was encoded (%v)", i, err)
		}
	}
	var sink colcodec.Summary
	return r.probe("colcodec.summarize", func() error {
		for _, b := range blocks {
			sink = colcodec.Summarize(b)
		}
		_ = sink
		return nil
	})
}

// probeKernels runs each task kernel over the sample on one goroutine,
// with no storage under it.
func (r *run) probeKernels() error {
	ds := r.sampleSeries()
	if err := r.probe("kernel.histogram", func() error {
		for _, s := range ds.Series {
			if _, err := histogram.Compute(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.probe("kernel.threeline", func() error {
		for _, s := range ds.Series {
			if _, _, err := threeline.ComputeTimed(s, ds.Temperature, threeline.DefaultConfig()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.probe("kernel.par", func() error {
		for _, s := range ds.Series {
			if _, err := par.Compute(s, ds.Temperature); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	full := r.in.prefix(len(r.in.series), r.in.hours())
	return r.probe("kernel.similarity", func() error {
		_, err := similarity.ComputeParallel(full, similarityTop, r.workers)
		full.ReleaseFlat()
		return err
	})
}

// probeScan measures the bulk store's read path without a kernel, each
// task on one worker, and each task warm.
func (r *run) probeScan() error {
	name := r.st.name()
	if err := r.probe(name+".cursor_drain", func() error {
		return r.withBulk(func(e engine) error { return drainCursors(e, r.workers) })
	}); err != nil {
		return err
	}
	if err := r.probe(name+".cursor_drain_w1", func() error {
		return r.withBulk(func(e engine) error { return drainCursors(e, 1) })
	}); err != nil {
		return err
	}
	if err := r.withBulk(func(e engine) error {
		ce, ok := e.(*colstore.Engine)
		if !ok {
			return nil
		}
		r.rec.set("colstore.meta_bytes", float64(ce.MetaBytes()), 1)
		return r.probe("colstore.summary_drain", func() error { return drainSummaries(ce) })
	}); err != nil {
		return err
	}
	for i, task := range []core.Task{core.TaskHistogram, core.TaskThreeLine, core.TaskPAR} {
		t := scanTasks[i]
		// The same cold job on one worker: the serial path.
		if err := r.probe("exec."+t+".w1", func() error {
			c, err := r.coldRun(core.Spec{Task: task, Workers: 1})
			if err == nil {
				err = checkScan(c.res, r.ref[task], len(r.in.series))
			}
			r.rec.op(t+" on one worker", err)
			r.sample(t+".run1", c.runOnly)
			return err
		}); err != nil {
			return err
		}
		// A second run on an engine that has already run once: the
		// paper's warm start.
		if err := r.withBulk(func(e engine) error {
			spec := core.Spec{Task: task, Workers: r.workers}
			if _, err := e.Run(spec); err != nil {
				return err
			}
			return r.probe("exec."+t+".warm", func() error {
				res, err := e.Run(spec)
				if err == nil {
					err = checkScan(res, r.ref[task], len(r.in.series))
				}
				r.rec.op(t+" warm", err)
				return err
			})
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeText scans the staged text with a sink that does nothing.
func (r *run) probeText() error {
	if r.src.text == nil {
		return nil
	}
	bytes, err := r.src.text.TotalBytes()
	if err != nil {
		return err
	}
	r.rec.set("meterdata.text_bytes_per_reading", float64(bytes)/float64(r.in.readings()), 1)
	return r.probe("meterdata.scan", func() error {
		for _, path := range r.src.text.Paths() {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			err = meterdata.ScanReadings(f, func(meterdata.Reading) error { return nil })
			_ = f.Close() // read only
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// probeLayers runs every probe and turns the samples into the
// per-layer metrics.
func (r *run) probeLayers() error {
	for _, fn := range []func() error{r.nowalProbe, r.probeCodec, r.probeKernels, r.probeScan, r.probeText} {
		if err := fn(); err != nil {
			return err
		}
	}
	r.layerMetrics()
	return nil
}

// layerMetrics names what the probes and the timed phases measured.
func (r *run) layerMetrics() {
	rec := r.rec
	name := r.st.name()
	readings := float64(r.in.readings())
	sampleReadings := float64(min(codecSample, len(r.in.series)) * r.in.hours())
	n := float64(len(r.in.series))
	med := func(series string) float64 { return median(rec.samples[series]) }
	perReadingNs := func(metric, series string) {
		rec.set(metric, med(series)*1e9/sampleReadings, len(rec.samples[series]))
	}

	rec.setMedian("generator.series_s", "generator")
	rec.setRate("generator.readings_per_s", readings, "generator")
	if r.src.text != nil {
		rec.setMedian("meterdata.write_text_s", "stage")
		rec.setRate("meterdata.scan_readings_per_s", readings, "meterdata.scan")
	}
	perReadingNs("colcodec.encode_ns_per_reading", "colcodec.encode")
	perReadingNs("colcodec.decode_ns_per_reading", "colcodec.decode")
	perReadingNs("colcodec.summarize_ns_per_reading", "colcodec.summarize")
	perReadingNs("histogram.compute_ns_per_reading", "kernel.histogram")
	perReadingNs("threeline.compute_ns_per_reading", "kernel.threeline")
	perReadingNs("par.compute_ns_per_reading", "kernel.par")
	rec.setRate("similarity.kernel_pairs_per_s", n*(n-1)/2, "kernel.similarity")

	// The bulk store, under the engine's own name.
	cache := "rowstore.pool"
	if name == "colstore" {
		cache = "colstore.pager"
		rec.setMedian("colstore.segwrite_s", "load")
		rec.setRate("colstore.load_readings_per_s", readings, "load")
		rec.setMedian("colstore.summary_drain_s", "colstore.summary_drain")
		rec.set("colstore.storage_bytes", float64(r.bulk.storageBytes), 1)
		rec.set("colstore.pager_resident_mb", float64(r.cache[2])/(1<<20), 1)
	} else {
		rec.setMedian("rowstore.load_s", "load")
		rec.setRate("rowstore.load_readings_per_s", readings, "load")
		rec.set("rowstore.storage_bytes_per_reading", float64(r.bulk.storageBytes)/readings, 1)
	}
	hits, misses := float64(r.cache[0]), float64(r.cache[1])
	rec.set(cache+"_hits", hits, 1)
	rec.set(cache+"_misses", misses, 1)
	if hits+misses > 0 {
		rec.set(cache+"_hit_ratio", hits/(hits+misses), 1)
	}
	rec.setMedian(name+".open_s", "open")
	rec.setMedian(name+".cursor_drain_s", name+".cursor_drain")
	rec.setRate(name+".cursor_drain_readings_per_s", readings, name+".cursor_drain")

	// The live store.
	cycle := n * float64(r.sz.cycleHours)
	rec.setRate(name+".append_readings_per_s", cycle, "append")
	rec.setMedian(name+".append_busy_s", "append_busy")
	acks := rec.samples["ack"]
	rec.set(name+".ack_p50_ms", median(acks)*1e3, len(acks))
	for _, p := range []struct {
		metric string
		p      float64
	}{{".ack_p99_ms", 0.99}, {".ack_p999_ms", 0.999}} {
		// A percentile the sample cannot support stays unset and reads zero.
		if v, ok := percentile(acks, p.p); ok {
			rec.set(name+p.metric, v*1e3, len(acks))
		}
	}
	if worst, _ := percentile(acks, 1); len(acks) > 0 {
		rec.set(name+".ack_max_ms", worst*1e3, len(acks))
	}
	rec.setMedian(name+".snapshot_drain_s", "snapshot_drain")
	rec.setMedian(name+".checkpoint_s", "checkpoint")
	if size, err := dirBytes(r.liveDir); err == nil {
		rec.set(name+".checkpoint_bytes", float64(size), 1)
	}
	rec.setMedian(name+".reopen_s", "reopen")
	rec.setRate(name+".append_nowal_readings_per_s", cycle, "append_nowal")
	if with := med("append"); with > 0 && med("append_nowal") > 0 {
		rec.set(name+".wal_overhead_x", with/med("append_nowal"), len(rec.samples["append"]))
	}

	// The log, from the counting filesystem under the traced cycles.
	lv := &r.live
	rec.set("wal.fsyncs", float64(lv.appendFsyncs), 1)
	rec.set("wal.write_calls", float64(lv.appendWrites), 1)
	rec.set("wal.bytes_written", float64(lv.appendBytes), 1)
	if lv.appendReadings > 0 {
		rec.set("wal.fsyncs_per_1k_readings", float64(lv.appendFsyncs)*1e3/float64(lv.appendReadings), 1)
		rec.set("wal.bytes_per_reading", float64(lv.appendBytes)/float64(lv.appendReadings), 1)
	}
	fsyncs := r.cfs.fsyncSeconds()
	rec.set("wal.fsync_p50_ms", median(fsyncs)*1e3, len(fsyncs))
	if v, ok := percentile(fsyncs, 0.99); ok {
		rec.set("wal.fsync_p99_ms", v*1e3, len(fsyncs))
	}
	var total float64
	for _, s := range fsyncs {
		total += s
	}
	rec.set("wal.fsync_total_s", total, len(fsyncs))
	rec.set("wal.dir_syncs", float64(r.cfs.dirSyncs.Load()), 1)
	rec.setMedian("wal.replay_s", "wal.replay")
	rec.setRate("wal.replay_readings_per_s", float64(r.live.replayReadings), "wal.replay")

	// The execution pipeline, per task.
	for _, t := range scanTasks {
		rec.setMedian("exec."+t+".extract_s", t+".extract")
		rec.setMedian("exec."+t+".compute_s", t+".compute")
		rec.setMedian("exec."+t+".emit_s", t+".emit")
		rec.setMedian("exec."+t+".w1_s", "exec."+t+".w1")
		if wn := med(t); wn > 0 {
			rec.set("exec."+t+".speedup_wN", med("exec."+t+".w1")/wn, len(rec.samples["exec."+t+".w1"]))
		}
		rec.setMedian("exec."+t+".warm_s", "exec."+t+".warm")
		// What a one-worker run takes beyond reading every series out
		// and running the kernel over them. The kernel's time is the
		// sample's, scaled to the store. Negative where the pipeline
		// answers from block summaries and never decodes.
		if run1 := med(t + ".run1"); run1 > 0 {
			kernel := med("kernel."+t) * readings / sampleReadings
			rec.set("exec."+t+".unattributed_share", (run1-med(name+".cursor_drain_w1")-kernel)/run1, len(rec.samples[t+".run1"]))
		}
	}
	rec.setMedian("exec.threeline.t1_quantiles_s", "threeline.t1")
	rec.setMedian("exec.threeline.t2_regression_s", "threeline.t2")
	rec.setMedian("exec.threeline.t3_adjust_s", "threeline.t3")

	// What tracing costs: traced against untraced repetitions of the
	// same phase in this one run, as the share of throughput lost.
	overhead := func(series string) float64 {
		traced, plain := med(series+".traced"), med(series+".untraced")
		if traced <= 0 || plain <= 0 {
			return 0
		}
		return 1 - plain/traced
	}
	tl, ap := overhead("threeline"), overhead("append")
	rec.set("bench.trace_overhead_threeline", tl, len(rec.samples["threeline.traced"]))
	rec.set("bench.trace_overhead_append", ap, len(rec.samples["append.traced"]))
	rec.set("bench.trace_overhead_share", max(tl, ap), 2)
	rec.set("bench.spans", float64(r.tr.count()), 1)
}
