// Command bench is the repository's benchmark: one workload per process,
// every end-to-end metric on every workload, a traced variant that
// reports per-layer metrics, and an A/A mode that says whether two sets
// of runs of the same code agree within each metric's bound. See
// README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/wal"
)

// defaultSeconds is how long the timed phases of one run last
// (BENCHMARK.json's run_seconds).
const defaultSeconds = 50

// buildDir holds everything a run writes. It sits in the working
// directory, which the benchmark's command makes this directory.
const buildDir = ".bench_build"

// shares splits a run's seconds between the phases. With the
// yardstick's share they sum to 1.
type shares struct {
	histogram, threeline, par, similarity, live float64
}

// workload is one configuration of the life cycle.
type workload struct {
	name   string
	why    string
	store  func(rawBytes int64) store
	sizes  map[string]sizes // by -scale
	shares shares
}

var workloads = []*workload{
	{
		name:  "scan_paged",
		why:   "column store: a bulk store four times its block cache, so pager, pread and block decode sit under every task, and a live store held in memory",
		store: func(raw int64) store { return colStore{budget: raw / 4} },
		sizes: map[string]sizes{
			"default": {consumers: 640, days: 365, baseDays: 196, cycleHours: 24},
			"tiny":    {consumers: 24, days: 21, baseDays: 7, cycleHours: 24},
		},
		shares: shares{histogram: 0.17, threeline: 0.17, par: 0.17, similarity: 0.22, live: 0.21},
	},
	{
		name:  "rowstore_text",
		why:   "row store loaded from text: the same pipeline and kernels over heap pages, a B-tree, tuple-at-a-time extraction and a one-shard log",
		store: func(int64) store { return rowStore{} },
		sizes: map[string]sizes{
			"default": {consumers: 96, days: 365, baseDays: 294, cycleHours: 24},
			"tiny":    {consumers: 12, days: 21, baseDays: 7, cycleHours: 24},
		},
		shares: shares{histogram: 0.18, threeline: 0.18, par: 0.18, similarity: 0.18, live: 0.22},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	traceOut string
	aa       int
	manifest bool

	// tamper, which only tests set, changes a task's results before
	// they are checked, to show that the check notices.
	tamper func(*core.Results)
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: scan_paged or rowstore_text")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the timed phases last")
	trace := fs.String("trace", "0", "1 records spans, runs the per-layer probes and reports per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default "+buildDir+"/trace-<workload>.json)")
	fs.StringVar(&o.scale, "scale", "default", "data sizes: default or tiny")
	fs.IntVar(&o.aa, "aa", 0, "run two interleaved sets of this many runs of every workload and compare them")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	t, err := strconv.ParseBool(*trace)
	if err != nil {
		return o, fmt.Errorf("-trace takes 0 or 1, not %q", *trace)
	}
	o.trace = t
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	return o, nil
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case o.manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case o.aa > 0:
		return runAA(o)
	}
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runWorkload(wl, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process, writes the report to
// out and returns the result line's content. Every file it creates is
// gone when it returns, whatever happened, except a traced run's spans.
func runWorkload(wl *workload, o options, dst io.Writer) (result, error) {
	sz, ok := wl.sizes[o.scale]
	if !ok {
		return result{}, fmt.Errorf("unknown scale %q", o.scale)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	// A signal must not leave hundreds of megabytes behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			// The run is still writing; sweep until nothing is left.
			for i := 0; i < 3; i++ {
				_ = os.RemoveAll(root) // exiting either way
			}
			os.Exit(130)
		case <-done:
		}
	}()

	rawBytes := int64(sz.consumers) * int64(sz.days) * 24 * 8
	r := &run{
		wl: wl, sz: sz, st: wl.store(rawBytes), seed: o.seed,
		workers: min(runtime.NumCPU(), 4), seconds: o.seconds,
		rec: newRecorder(), root: root, ctx: context.Background(), tamper: o.tamper,
	}
	if r.yard, err = newYardstick(r.workers); err != nil {
		return result{}, err
	}
	defer r.yard.close() // unmapping memory the process is done with cannot lose anything
	if o.trace {
		r.tr = newTracer()
		r.cfs = newCountingFS(wal.OSFS, r.tr)
	}

	// Writes are buffered; the first write error surfaces from a flush.
	out := bufio.NewWriter(dst)
	began := now()
	fmt.Fprintf(out, "workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(out, "  seed=%d scale=%s seconds=%g traced=%v W=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		o.seed, o.scale, o.seconds, o.trace, r.workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(out, "  %d consumers x %d days (%d readings, %.1f MiB raw); live: %d-day base, cycles of %d hours\n",
		sz.consumers, sz.days, rawBytes/8, float64(rawBytes)/(1<<20), sz.baseDays, sz.cycleHours)
	if err := out.Flush(); err != nil {
		return result{}, err
	}

	if err := r.execute(); err != nil {
		return result{}, err
	}
	r.rec.report(out, o.trace)
	wall, stolen := began.since()
	fmt.Fprintf(out, "  %d operations attempted, %d failed; wall %s, of which the hypervisor took %s from the processor it took most from\n",
		r.rec.attempted, r.rec.failed, wall.Round(time.Millisecond), stolen.Round(time.Millisecond))
	if o.trace {
		spans := r.tr.snapshot()
		printTable(out, spans)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(buildDir, "trace-"+wl.name+".json")
		}
		if err := writeTrace(path, traceFile{Workload: wl.name, Seed: o.seed, Spans: spans}); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "  %d spans written to %s\n", len(spans), path)
	}
	if err := out.Flush(); err != nil {
		return result{}, err
	}
	return r.rec.result(o.trace)
}

// commit names the revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
