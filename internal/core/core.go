// Package core defines the smart meter analytics benchmark itself: the
// four analysis tasks (paper §3), the contract every candidate platform
// ("engine") implements, and the capability matrix the paper reports as
// Table 1.
//
// An engine models one of the paper's five platforms. The benchmark
// driver uses the same protocol the paper describes:
//
//	cold start:  NewEngine -> Load(source) -> Run(spec)
//	warm start:  ... -> Run(spec) again with data resident in memory
//
// Load ingests raw text files into the engine's native storage (heap
// pages, columnar segments, or nothing at all for the file-based
// engine); Run executes one task against that storage.
package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Task identifies one of the four benchmark tasks.
type Task int

const (
	// TaskHistogram is the per-consumer consumption histogram (§3.1).
	TaskHistogram Task = iota
	// TaskThreeLine is the 3-line thermal sensitivity model (§3.2).
	TaskThreeLine
	// TaskPAR is the periodic auto-regression daily profile (§3.3).
	TaskPAR
	// TaskSimilarity is the top-k cosine similarity search (§3.4).
	TaskSimilarity
)

// Tasks lists all benchmark tasks in paper order.
var Tasks = []Task{TaskHistogram, TaskThreeLine, TaskPAR, TaskSimilarity}

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case TaskHistogram:
		return "histogram"
	case TaskThreeLine:
		return "3-line"
	case TaskPAR:
		return "PAR"
	case TaskSimilarity:
		return "similarity"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Spec parameterizes a task execution.
type Spec struct {
	Task Task
	// Buckets is the histogram bucket count (default 10).
	Buckets int
	// K is the similarity-search result size (default 10).
	K int
	// Order is the PAR auto-regressive order (default 3).
	Order int
	// Workers is the intra-engine parallelism degree; 0 or 1 means
	// single-threaded (paper §5.3.3 vs §5.3.4).
	Workers int
	// FailPolicy selects per-consumer failure containment (see the
	// FailPolicy constants). The zero value FailFast keeps the
	// pre-containment semantics: any error aborts the run.
	FailPolicy FailPolicy
}

// WithDefaults returns the spec with unset parameters filled in.
func (s Spec) WithDefaults() Spec {
	if s.Buckets <= 0 {
		s.Buckets = histogram.DefaultBuckets
	}
	if s.K <= 0 {
		s.K = similarity.DefaultK
	}
	if s.Order <= 0 {
		s.Order = par.DefaultOrder
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	return s
}

// Results carries the output of one task execution; exactly one result
// field is populated, matching the Spec's Task.
type Results struct {
	Task       Task
	Histograms []*histogram.Result
	ThreeLines []*threeline.Result
	Profiles   []*par.Result
	Similar    []*similarity.Result

	// Phases carries the execution pipeline's per-stage instrumentation
	// (extract/compute/emit wall clock and volume, plus the 3-line
	// T1/T2/T3 sub-phases). It is populated by internal/exec — i.e. by
	// every engine Run — and nil for results produced by the reference
	// implementations.
	Phases *Phases

	// Failed lists the consumers quarantined under FailPolicy
	// Quarantine or Repair, in ascending household-ID order. It is
	// always empty under FailFast (the first failure aborts the run
	// instead).
	Failed []ConsumerFailure
}

// Count returns the number of per-consumer results produced.
func (r *Results) Count() int {
	switch r.Task {
	case TaskHistogram:
		return len(r.Histograms)
	case TaskThreeLine:
		return len(r.ThreeLines)
	case TaskPAR:
		return len(r.Profiles)
	case TaskSimilarity:
		return len(r.Similar)
	default:
		return 0
	}
}

// LoadStats describes a completed Load.
type LoadStats struct {
	// Consumers is the number of series ingested.
	Consumers int
	// Readings is the total number of readings ingested.
	Readings int64
	// StorageBytes is the engine-native storage footprint, when the
	// engine materializes one (0 for engines that read raw files).
	StorageBytes int64
	// RawBytes is the uncompressed size of the reading matrix
	// (consumers × series length × 8 bytes). Engines that compress
	// report both so extract cost is attributable to decode;
	// StorageBytes/RawBytes is the storage compression ratio.
	RawBytes int64
}

// Engine is the contract each platform analogue implements. Engines are
// not safe for concurrent use by multiple goroutines; intra-task
// parallelism is requested via Spec.Workers.
type Engine interface {
	// Name returns the platform name used in reports.
	Name() string
	// Capabilities reports which statistical functions the platform has
	// built in (Table 1).
	Capabilities() Capabilities
	// Load ingests a raw data source into engine-native storage. It
	// replaces any previously loaded data.
	Load(src *meterdata.Source) (*LoadStats, error)
	// PartitionedSource opens cursors over the loaded data through the
	// engine's native extraction path, or fails with ErrNotLoaded.
	PartitionedSource
	// Temperature returns the outdoor temperature series aligned with
	// the loaded consumption data, or an error wrapping ErrNotLoaded.
	Temperature() (*timeseries.Temperature, error)
	// Run executes one benchmark task against the loaded data through
	// the shared execution pipeline (internal/exec), which populates
	// Results.Phases; it is RunContext with a background context.
	Run(spec Spec) (*Results, error)
	// RunContext is Run under a context: cancelling the context (or
	// letting its deadline pass) stops the run promptly — including
	// mid-extraction — with all pipeline goroutines joined and cursors
	// closed before it returns.
	RunContext(ctx context.Context, spec Spec) (*Results, error)
	// Release drops all in-memory state, returning the engine to a cold
	// state (native on-disk storage, if any, is kept).
	Release() error
}

// ErrNotLoaded is returned by Run when no data has been loaded.
var ErrNotLoaded = errors.New("core: no data loaded")

// FunctionSupport says how a platform obtains one statistical function,
// mirroring the paper's Table 1 ("yes" / "third party" / "no").
type FunctionSupport int

const (
	// SupportNone means the benchmark implementation had to hand-write
	// the operator inside the platform.
	SupportNone FunctionSupport = iota
	// SupportThirdParty means an external library supplies it.
	SupportThirdParty
	// SupportBuiltin means the platform ships the function natively.
	SupportBuiltin
)

// String implements fmt.Stringer using the paper's Table 1 vocabulary.
func (f FunctionSupport) String() string {
	switch f {
	case SupportBuiltin:
		return "yes"
	case SupportThirdParty:
		return "third party"
	case SupportNone:
		return "no"
	default:
		return fmt.Sprintf("FunctionSupport(%d)", int(f))
	}
}

// Capabilities is one platform's row set of Table 1.
type Capabilities struct {
	Histogram        FunctionSupport
	Quantiles        FunctionSupport
	Regression       FunctionSupport
	CosineSimilarity FunctionSupport
}

// RunReference executes a spec against an in-memory dataset using the
// reference (library-level) implementations. Engines delegate to this
// once they have materialized the dataset, and tests use it as the
// correctness oracle for every engine.
func RunReference(d *timeseries.Dataset, spec Spec) (*Results, error) {
	spec = spec.WithDefaults()
	out := &Results{Task: spec.Task}
	switch spec.Task {
	case TaskHistogram:
		for _, s := range d.Series {
			r, err := histogram.ComputeBuckets(s, spec.Buckets)
			if err != nil {
				return nil, err
			}
			out.Histograms = append(out.Histograms, r)
		}
	case TaskThreeLine:
		plan := threeline.NewPlan(d.Temperature, threeline.DefaultConfig())
		var sc threeline.Scratch
		for _, s := range d.Series {
			r, _, err := plan.Compute(s, &sc)
			if err != nil {
				return nil, err
			}
			out.ThreeLines = append(out.ThreeLines, r)
		}
	case TaskPAR:
		plan := par.NewPlan(d.Temperature, spec.Order)
		var sc par.Scratch
		for _, s := range d.Series {
			r, err := plan.Compute(s, &sc)
			if err != nil {
				return nil, err
			}
			out.Profiles = append(out.Profiles, r)
		}
	case TaskSimilarity:
		rs, err := similarity.ComputeParallel(d, spec.K, spec.Workers)
		if err != nil {
			return nil, err
		}
		out.Similar = rs
	default:
		return nil, fmt.Errorf("core: unknown task %v", spec.Task)
	}
	return out, nil
}
