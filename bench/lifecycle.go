package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Rules every timed phase follows:
//   - the load is W = min(nproc, 4) workers or writers from this process;
//   - a phase runs one untimed warm-up repetition (part of set-up), then
//     at least its minimum of timed repetitions, with runtime.GC()
//     before each, and keeps going until its share of -seconds is spent;
//   - phases take turns, the next repetition going to the phase furthest
//     from done, so that every phase samples the whole run and a burst of
//     interference from a neighbour lands on a few repetitions of every
//     phase, where the median discards it, and not on every repetition
//     of one phase;
//   - a metric is work ÷ median repetition time.
const (
	setUps         = 5    // inputs and stores are built this often; setup_s is the median
	freshQueries   = 4    // snapshot histograms per live cycle, each after a slice of appends
	recoveries     = 4    // crash and reopen this often per live cycle
	probeReps      = 3    // repetitions of each per-layer probe
	yardstickShare = 0.06 // of -seconds, for the machine-speed probe
	tracedShare    = 0.6  // of -seconds, that a traced run's timed phases get
	loadShare      = 0.2  // of that, on top, for the load phase only a traced run has
	codecSample    = 200  // series the codec and kernel probes run over
	similarityTop  = 10
)

// sizes fixes how much data a workload moves at one scale.
type sizes struct {
	consumers  int // households, in the bulk store and the live store alike
	days       int // length of the generated series and of the bulk store
	baseDays   int // sealed base of the live store
	cycleHours int // hours every household appends per live cycle
}

// run is the state of one workload run.
type run struct {
	wl      *workload
	sz      sizes
	st      store
	seed    int64
	workers int
	seconds float64
	tr      *tracer     // nil when the run is not traced
	cfs     *countingFS // under the log of traced live cycles; nil with tr
	rec     *recorder
	root    string // every file the run makes lives under here
	ctx     context.Context
	tamper  func(*core.Results) // tests only; see options

	built
	warm bool // the warm-up round: repetitions run but leave no samples

	yard        *yardstick    // the machine-speed probe; see yardstick.go
	simVerified *core.Results // a similarity result brute force has confirmed
	cache       [3]int64      // block cache counters after the last 3-line run
	live        liveState
}

// built is what one set-up produces.
type built struct {
	in       *inputs
	ref      map[core.Task]*core.Results // bulk store, full length
	src      source                      // what a load reads
	bulkDir  string
	bulk     loadStats
	liveDir  string
	nowalDir string // traced runs: a second live store, without a log
}

// phase is one timed activity. run performs one repetition and records
// its own samples; the scheduler in measure does the rest.
type phase struct {
	name    string
	minReps int
	maxReps int     // the phase stops here even with time left; 0 sets no limit
	share   float64 // of -seconds
	run     func(rep int) error

	reps  int
	spent time.Duration
}

// sample records a timed repetition unless this is the warm-up round.
func (r *run) sample(name string, d time.Duration) {
	if !r.warm {
		r.rec.sample(name, d.Seconds())
	}
}

// setUp generates the inputs from the seed and builds both stores under
// dir: everything a timed repetition needs to find in place.
func (r *run) setUp(dir string) (built, error) {
	var b built
	in, err := makeInputs(r.seed, r.sz.consumers, r.sz.days)
	if err != nil {
		return b, err
	}
	r.sample("generator", in.generating)
	b.in = in
	if b.ref, err = in.reference(in.hours()); err != nil {
		return b, err
	}

	sp := r.tr.begin("meterdata.stage")
	b.src, err = r.st.stage(filepath.Join(dir, "input"), in.prefix(len(in.series), in.hours()))
	r.sample("stage", sp.end())
	if err != nil {
		return b, fmt.Errorf("stage input: %w", err)
	}
	b.bulkDir = filepath.Join(dir, "bulk")
	if b.bulk, err = r.st.load(b.src, b.bulkDir); err != nil {
		return b, fmt.Errorf("build bulk store: %w", err)
	}

	// The live store starts from a sealed base: the same households,
	// the first baseDays of their series.
	base := in.prefix(len(in.series), r.sz.baseDays*timeseries.HoursPerDay)
	baseSrc, err := r.st.stage(filepath.Join(dir, "base-input"), base)
	if err != nil {
		return b, fmt.Errorf("stage live base: %w", err)
	}
	b.liveDir = filepath.Join(dir, "live")
	if _, err := r.st.load(baseSrc, b.liveDir); err != nil {
		return b, fmt.Errorf("build live base: %w", err)
	}
	if r.tr != nil {
		b.nowalDir = filepath.Join(dir, "live-nowal")
		if _, err := r.st.load(baseSrc, b.nowalDir); err != nil {
			return b, fmt.Errorf("build no-log live base: %w", err)
		}
	}
	return b, nil
}

// prepare is everything before the first timed repetition. The inputs
// and stores are built setUps times, each from scratch, and setup_s is
// the median build plus the one warm-up round, so that work a change
// moves out of the timed phases into either of them shows.
func (r *run) prepare(phases []*phase) error {
	var keep string
	for i := 0; i < setUps; i++ {
		dir := filepath.Join(r.root, fmt.Sprintf("setup-%d", i))
		// Two generations of inputs alive at once would set the run's
		// peak memory, which is to be the system's and not the harness's.
		r.built = built{}
		runtime.GC()
		start := now()
		b, err := r.setUp(dir)
		if err != nil {
			return err
		}
		r.rec.sample("build", start.own().Seconds())
		if keep != "" {
			if err := os.RemoveAll(keep); err != nil {
				return err
			}
		}
		keep, r.built = dir, b
	}

	r.warm = true
	start := now()
	for _, p := range phases {
		runtime.GC()
		if err := p.run(-1); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	r.warm = false
	warmUp := start.own().Seconds()
	builds := r.rec.samples["build"]
	r.rec.set("setup_s", median(builds)+warmUp, len(builds))
	return nil
}

// measure runs the phases until each has its minimum of repetitions and
// has spent its share of the run's seconds. The next repetition always
// goes to the phase that is furthest from being done, so every phase's
// repetitions are spread over the whole run however long one of them
// takes: a phase of short repetitions is not left to run on its own at
// the end, where its median would be the machine's speed in those few
// seconds.
func (r *run) measure(phases []*phase) error {
	// A traced run reports no end-to-end metric, so it gives part of
	// its time to the per-layer probes that follow.
	seconds := r.seconds
	if r.tr != nil {
		seconds *= tracedShare
	}
	for {
		var next *phase
		least := 1.0
		for _, p := range phases {
			if p.maxReps > 0 && p.reps >= p.maxReps {
				continue
			}
			budget := p.share * seconds
			progress := min(float64(p.reps)/float64(p.minReps), p.spent.Seconds()/budget)
			if progress < least {
				next, least = p, progress
			}
		}
		if next == nil {
			return nil
		}
		r.tr.setRep(next.reps)
		runtime.GC()
		start := time.Now()
		if err := next.run(next.reps); err != nil {
			return fmt.Errorf("%s repetition %d: %w", next.name, next.reps, err)
		}
		next.spent += time.Since(start)
		next.reps++
	}
}

// loadRep loads the staged input into a fresh directory and removes it.
func (r *run) loadRep(rep int) error {
	dir := filepath.Join(r.root, "load")
	sp := r.tr.begin(r.st.name() + ".load")
	st, err := r.st.load(r.src, dir)
	d := sp.end()
	if err == nil && (st.consumers != len(r.in.series) || st.readings != r.in.readings()) {
		err = fmt.Errorf("loaded %d consumers and %d readings, want %d and %d",
			st.consumers, st.readings, len(r.in.series), r.in.readings())
	}
	r.rec.op("load", err)
	r.sample("load", d)
	return os.RemoveAll(dir)
}

// coldResult is what one cold repetition yields.
type coldResult struct {
	res     *core.Results
	total   time.Duration // attach + run + detach
	runOnly time.Duration
	cache   [3]int64 // block cache hits, misses, resident bytes before the detach
}

// coldRun is one cold repetition of a task over the bulk store: attach
// the directory, run, detach.
func (r *run) coldRun(spec core.Spec) (c coldResult, err error) {
	began := now()
	whole := r.tr.begin("bench.cold_rep")
	sp := r.tr.begin(r.st.name() + ".open")
	e, err := r.st.open(r.bulkDir, openMode{})
	r.sample("open", sp.end())
	if err != nil {
		whole.end()
		return c, err
	}
	sp = r.tr.begin("exec.run")
	c.res, err = e.Run(spec)
	c.runOnly = sp.end()
	c.cache[0], c.cache[1], c.cache[2] = r.st.cacheStats(e)
	sp = r.tr.begin(r.st.name() + ".release")
	err = errors.Join(err, r.st.close(e))
	sp.end()
	whole.end()
	c.total = began.own()
	return c, err
}

// tracedSeries names the sample series that keeps a phase's traced and
// untraced repetitions apart.
func tracedSeries(phase string, traced bool) string {
	if traced {
		return phase + ".traced"
	}
	return phase + ".untraced"
}

// taskRep is one cold repetition of a per-consumer task at W workers,
// checked against the reference.
func (r *run) taskRep(task core.Task, name string) func(int) error {
	return func(rep int) error {
		// A traced run leaves every other 3-line repetition untraced:
		// the two medians give what tracing costs.
		traced := rep%2 == 0
		if name == "threeline" {
			r.tr.enable(traced)
			defer r.tr.enable(true)
		}
		c, err := r.coldRun(core.Spec{Task: task, Workers: r.workers})
		if err == nil && r.tamper != nil {
			r.tamper(c.res)
		}
		if err == nil {
			err = checkScan(c.res, r.ref[task], len(r.in.series))
		}
		r.rec.op(name, err)
		if err != nil {
			return nil // counted as failed; the run goes on and exits non-zero
		}
		r.sample(name, c.total)
		if name == "threeline" && r.tr != nil {
			r.sample(tracedSeries(name, traced), c.total)
		}
		ph := c.res.Phases
		r.sample(name+".extract", ph.Extract.Wall)
		r.sample(name+".compute", ph.Compute.Wall)
		r.sample(name+".emit", ph.Emit.Wall)
		if task == core.TaskThreeLine {
			r.sample("threeline.t1", ph.T1Quantiles)
			r.sample("threeline.t2", ph.T2Regression)
			r.sample("threeline.t3", ph.T3Adjust)
			r.cache = c.cache
		} else {
			// Exact for a fixed seed, so the last repetition's count is every repetition's.
			r.rec.set("exec."+name+".summary_blocks", float64(ph.SummaryBlocks), 1)
			r.rec.set("exec."+name+".decoded_blocks", float64(ph.DecodedBlocks), 1)
		}
		return nil
	}
}

// similarityRep is one cold repetition of the all-pairs task. Brute
// force confirms the first result; later ones must repeat it exactly.
func (r *run) similarityRep(int) error {
	c, err := r.coldRun(core.Spec{Task: core.TaskSimilarity, K: similarityTop, Workers: r.workers})
	switch {
	case err != nil:
	case r.simVerified == nil:
		if err = checkSimilar(c.res, r.in.series, similarityTop); err == nil {
			r.simVerified = c.res
		}
	default:
		err = sameSimilar(c.res, r.simVerified)
	}
	r.rec.op("similarity", err)
	if err == nil {
		r.sample("similarity", c.total)
	}
	return nil
}

func sameSimilar(got, want *core.Results) error {
	if len(got.Failed) > 0 || len(got.Similar) != len(want.Similar) {
		return fmt.Errorf("%d results and %d quarantined, want %d and 0", len(got.Similar), len(got.Failed), len(want.Similar))
	}
	for i, w := range want.Similar {
		g := got.Similar[i]
		if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
			return fmt.Errorf("matches of consumer %d changed between repetitions", w.ID)
		}
		for j := range w.Matches {
			if g.Matches[j].ID != w.Matches[j].ID || !sameBits(g.Matches[j].Score, w.Matches[j].Score) {
				return fmt.Errorf("match %d of consumer %d changed between repetitions", j, w.ID)
			}
		}
	}
	return nil
}

// liveState is the live store between cycles.
type liveState struct {
	e     engine
	hours int // every household holds this many, base included

	// What the counting filesystem saw during traced append phases.
	appendFsyncs, appendWrites, appendBytes, appendReadings int64
	replayReadings                                          int  // readings the log replay probe found
	replayed                                                bool // the log replay probe ran
}

// openLive attaches the live store with the log armed. A traced cycle
// gets the counting filesystem under its log; every other cycle of a
// traced run, and every cycle of an untraced one, gets the real one.
func (r *run) openLive(traced bool) (engine, error) {
	mode := openMode{live: true, wal: true}
	if traced {
		mode.fs = r.cfs
	}
	return r.st.open(r.liveDir, mode)
}

// appendHours has W writers, each owning the households core.ShardFor
// gives it, append hours [from, to) one hour of their shard per call.
// It returns the wall time from the first call to the last ack and
// every call's latency.
func (r *run) appendHours(e engine, from, to int, span string) (wall time.Duration, acks []time.Duration, err error) {
	type outcome struct {
		acks []time.Duration
		err  error
	}
	outs := make([]outcome, r.workers)
	// In a traced cycle the log sits on the counting filesystem; what
	// it sees between here and the last ack is what appending cost.
	counted := r.cfs != nil && r.tr.on.Load()
	var before [3]int64
	if counted {
		before = [3]int64{r.cfs.fsyncs.Load(), r.cfs.writes.Load(), r.cfs.bytes.Load()}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < r.workers; w++ {
		var own []*timeseries.Series
		for _, s := range r.in.series {
			if core.ShardFor(s.ID, r.workers) == w {
				own = append(own, s)
			}
		}
		wg.Add(1)
		go func(out *outcome) {
			defer wg.Done()
			batch := make([]core.Reading, len(own))
			for h := from; h < to && out.err == nil; h++ {
				for i, s := range own {
					batch[i] = core.Reading{ID: s.ID, Hour: h, Consumption: s.Readings[h], Temperature: r.in.temp.Values[h]}
				}
				sp := r.tr.begin(span)
				out.err = e.Append(batch)
				out.acks = append(out.acks, sp.end())
			}
		}(&outs[w])
	}
	wg.Wait()
	wall = time.Since(start)
	if counted {
		lv := &r.live
		lv.appendFsyncs += r.cfs.fsyncs.Load() - before[0]
		lv.appendWrites += r.cfs.writes.Load() - before[1]
		lv.appendBytes += r.cfs.bytes.Load() - before[2]
		lv.appendReadings += int64(to-from) * int64(len(r.in.series))
	}
	for _, out := range outs {
		acks = append(acks, out.acks...)
		for i := range out.acks {
			var failed error
			if i == len(out.acks)-1 {
				failed = out.err
			}
			r.rec.op("append", failed)
		}
		if err == nil {
			err = out.err
		}
	}
	return wall, acks, err
}

// snapshotHistogram answers a histogram over a snapshot of the live
// store and checks that every household holds exactly wantHours. The
// time it returns is the machine's own (see clock.go).
func (r *run) snapshotHistogram(e engine, wantHours int) (time.Duration, error) {
	began := now()
	sp := r.tr.begin("exec.run_snapshot")
	res, _, err := exec.RunSnapshot(r.ctx, e, core.Spec{Task: core.TaskHistogram, Workers: r.workers})
	sp.end()
	d := began.own()
	if err == nil {
		err = checkTotals(res, len(r.in.series), wantHours)
	}
	return d, err
}

// liveCycle is one round of the durable-ingest sequence: append half a
// cycle, checkpoint with the writers paused, append the other half in
// freshQueries slices with a snapshot query after each, then crash and
// recover recoveries times (every reopen replays the same log).
//
// The live store keeps what a cycle appended, but a cycle is small
// beside the sealed base, so every freshness sample and every recovery
// sample is nearly the same work and their medians are medians of like
// things. No background checkpointer runs: on a shared machine its
// timer made append throughput and recovery time depend on where the
// last checkpoint happened to fall, so the checkpoints sit at fixed
// points.
func (r *run) liveCycle(rep int) error {
	lv := &r.live
	// A traced run traces every other cycle, for the same reason as
	// taskRep does.
	traced := r.tr != nil && rep%2 == 0
	r.tr.enable(traced)
	defer r.tr.enable(true)
	if lv.e == nil {
		lv.hours = r.sz.baseDays * timeseries.HoursPerDay
		e, err := r.openLive(traced)
		if err != nil {
			return err
		}
		lv.e = e
	}
	half := lv.hours + r.sz.cycleHours/2
	end := lv.hours + r.sz.cycleHours
	if end > r.in.hours() {
		return fmt.Errorf("the generated series end before live cycle %d", rep)
	}
	appendSpan := r.st.name() + ".append"

	wall, acks, err := r.appendHours(lv.e, lv.hours, half, appendSpan)
	if err != nil {
		return err
	}
	lv.hours = half
	if err := r.checkpoint(lv.e); err != nil {
		return err
	}
	// The checkpoint left the block cache or buffer pool empty; one
	// untimed query refills it, as the warm-up round does for the tasks.
	if _, err := r.snapshotHistogram(lv.e, lv.hours); err != nil {
		return err
	}
	// Every snapshot query follows an ack: the second half arrives in
	// freshQueries slices and each is queried as soon as it is acked.
	for i := 0; i < freshQueries; i++ {
		to := half + (end-half)*(i+1)/freshQueries
		runtime.GC()
		slice, more, err := r.appendHours(lv.e, lv.hours, to, appendSpan)
		if err != nil {
			return err
		}
		lv.hours = to
		wall += slice
		acks = append(acks, more...)
		d, err := r.snapshotHistogram(lv.e, lv.hours)
		r.rec.op("snapshot query", err)
		if err == nil {
			r.sample("freshness", d)
		}
	}
	r.sample("append", wall)
	var busy time.Duration
	for _, a := range acks {
		r.sample("ack", a)
		busy += a
	}
	r.sample("append_busy", busy)
	r.sample(tracedSeries("append", traced), wall)
	if traced && !r.warm {
		if err := r.drainSnapshot(lv.e); err != nil {
			return err
		}
	}

	for i := 0; i < recoveries; i++ {
		lv.e.Crash()
		if traced && !lv.replayed && !r.warm {
			if err := r.replayProbe(); err != nil {
				return err
			}
			lv.replayed = true
		}
		// The last reopen of a cycle serves the next one, which is
		// traced when this one is not.
		nextTraced := traced
		if i == recoveries-1 && r.tr != nil {
			nextTraced = !traced
		}
		runtime.GC()
		began := now()
		whole := r.tr.begin("bench.recovery")
		sp := r.tr.begin(r.st.name() + ".reopen")
		e, err := r.openLive(nextTraced)
		r.sample("reopen", sp.end())
		if err != nil {
			whole.end()
			return err
		}
		lv.e = e
		_, err = r.snapshotHistogram(e, lv.hours)
		whole.end()
		d := began.own()
		r.rec.op("recovery", err)
		if err == nil {
			r.sample("recovery", d)
		}
	}
	return nil
}

// checkpoint folds the live tail into the store's files, synchronously.
func (r *run) checkpoint(e engine) error {
	sp := r.tr.begin(r.st.name() + ".checkpoint")
	err := e.Checkpoint()
	d := sp.end()
	r.rec.op("checkpoint", err)
	if err != nil {
		return err
	}
	r.sample("checkpoint", d)
	return nil
}

// closeLive ends the live store's last session and checks its final
// state once more, through a fresh attach with no log to replay: the
// first refConsumers histograms must match the reference over exactly
// the hours that were acked.
func (r *run) closeLive() error {
	lv := &r.live
	if lv.e == nil {
		return nil
	}
	err := errors.Join(r.checkpoint(lv.e), r.st.close(lv.e))
	lv.e = nil
	if err != nil {
		return err
	}
	e, err := r.st.open(r.liveDir, openMode{live: true, wal: true})
	if err != nil {
		return err
	}
	res, _, err := exec.RunSnapshot(r.ctx, e, core.Spec{Task: core.TaskHistogram, Workers: r.workers})
	if err == nil {
		var ref map[core.Task]*core.Results
		if ref, err = r.in.reference(lv.hours); err == nil {
			err = checkScan(res, ref[core.TaskHistogram], len(r.in.series))
		}
	}
	r.rec.op("final live state", err)
	return r.st.close(e)
}

// yardstickRep times the machine-speed probe once.
func (r *run) yardstickRep(int) error {
	began := now()
	r.yard.run()
	r.sample("yardstick", began.own())
	return nil
}

// finish turns samples into the end-to-end metrics. Times are put on the
// reference machine's scale: this run's machine was speed times as fast
// as the reference, by the yardstick, so the same work would have taken
// speed times as long there.
func (r *run) finish() {
	rec := r.rec
	readings := float64(r.in.readings())
	n := float64(len(r.in.series))
	speed := yardstickRef.Seconds() / median(rec.samples["yardstick"])
	rec.set("bench.machine_speed", speed, len(rec.samples["yardstick"]))
	rec.set("stored_bytes_per_raw_byte", float64(r.bulk.storageBytes)/(readings*8), 1)
	for _, t := range scanTasks {
		rec.setRate(t+"_readings_per_s", readings/speed, t)
	}
	rec.setRate("similarity_pairs_per_s", n*(n-1)/2/speed, "similarity")
	rec.set("freshness_s", median(rec.samples["freshness"])*speed, len(rec.samples["freshness"]))
	rec.set("recovery_s", median(rec.samples["recovery"])*speed, len(rec.samples["recovery"]))
	rec.set("setup_s", rec.values["setup_s"]*speed, rec.counts["setup_s"])
	if rss, err := peakRSSMB(); err == nil {
		rec.set("peak_rss_mb", rss, 1)
	}
}

func (r *run) phases() []*phase {
	sh := r.wl.shares
	var phases []*phase
	if r.tr != nil {
		// Load throughput is a per-layer metric (see endToEnd), so only
		// a traced run spends time on it.
		phases = append(phases, &phase{name: "load", minReps: 5, share: loadShare, run: r.loadRep})
	}
	return append(phases, []*phase{
		{name: "histogram", minReps: 10, share: sh.histogram, run: r.taskRep(core.TaskHistogram, "histogram")},
		{name: "threeline", minReps: 5, share: sh.threeline, run: r.taskRep(core.TaskThreeLine, "threeline")},
		{name: "par", minReps: 5, share: sh.par, run: r.taskRep(core.TaskPAR, "par")},
		{name: "similarity", minReps: 5, share: sh.similarity, run: r.similarityRep},
		{name: "yardstick", minReps: 5, share: yardstickShare, run: r.yardstickRep},
		// The warm-up cycle and the timed ones must fit in the generated series.
		{name: "live", minReps: 5, maxReps: (r.sz.days-r.sz.baseDays)*timeseries.HoursPerDay/r.sz.cycleHours - 1, share: sh.live, run: r.liveCycle},
	}...)
}

// execute runs the workload from set-up to metrics.
func (r *run) execute() error {
	phases := r.phases()
	if err := r.prepare(phases); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := r.measure(phases); err != nil {
		return err
	}
	if err := r.closeLive(); err != nil {
		return fmt.Errorf("close live store: %w", err)
	}
	if r.tr != nil {
		if err := r.probeLayers(); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
	}
	r.finish()
	return nil
}
