package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// FailPolicy selects how the execution pipeline reacts when a single
// consumer's extraction or computation fails. The paper's benchmark
// assumes clean, fully materialized inputs; production meter pipelines
// do not get that luxury (missing intervals, corrupt rows, flaky
// storage), so the pipeline can contain a failure to the consumer it
// belongs to instead of aborting the whole run.
type FailPolicy int

const (
	// FailFast (the zero value) aborts the run on the first error — the
	// pre-containment semantics, and still the right default for
	// benchmark runs where a failure means the harness itself is broken.
	FailFast FailPolicy = iota
	// Quarantine skips a failing consumer: the failure is recorded on
	// Results.Failed (ID, phase, error) and every other consumer's
	// result is produced bit-identically to a run without the bad
	// series. Nothing is retried: a consumer the cursor could not read
	// is quarantined at its first error.
	Quarantine
	// Repair is Quarantine plus data repair: a series with missing
	// (NaN) readings is routed through the hybrid gap-filling imputer
	// (internal/impute) before computing. A series the imputer cannot
	// save (every reading missing) is demoted to quarantine.
	Repair
)

// String implements fmt.Stringer.
func (p FailPolicy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case Quarantine:
		return "quarantine"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("FailPolicy(%d)", int(p))
	}
}

// ParseFailPolicy converts a CLI flag value to a FailPolicy.
func ParseFailPolicy(s string) (FailPolicy, error) {
	switch s {
	case "failfast":
		return FailFast, nil
	case "quarantine":
		return Quarantine, nil
	case "repair":
		return Repair, nil
	default:
		return FailFast, fmt.Errorf("core: unknown fail policy %q (want failfast, quarantine or repair)", s)
	}
}

// Phase names used in ConsumerFailure.Phase.
const (
	// PhaseExtract marks a failure while reading the consumer out of
	// engine storage.
	PhaseExtract = "extract"
	// PhaseCompute marks a failure (error or recovered panic) inside
	// the task kernel.
	PhaseCompute = "compute"
	// PhaseRepair marks a failure while imputing a gapped series under
	// FailPolicy Repair.
	PhaseRepair = "repair"
)

// ConsumerFailure records one quarantined consumer: which household,
// which pipeline phase gave up on it, and why.
type ConsumerFailure struct {
	ID    timeseries.ID
	Phase string
	Err   error
}

func (f ConsumerFailure) String() string {
	return fmt.Sprintf("consumer %d failed in %s: %v", f.ID, f.Phase, f.Err)
}

// FailedIDs returns the quarantined household IDs in Results order
// (ascending).
func (r *Results) FailedIDs() []timeseries.ID {
	ids := make([]timeseries.ID, len(r.Failed))
	for i, f := range r.Failed {
		ids[i] = f.ID
	}
	return ids
}

// ConsumerError is an error scoped to a single consumer series. It is
// the contract between cursors and the pipeline's containment layer:
// the consumer is unreadable and the cursor has moved past it, so the
// next Next proceeds with the following consumer. Under Quarantine and
// Repair the pipeline records the consumer and goes on.
//
// Any cursor error that is not a *ConsumerError is treated as fatal to
// the whole run under every FailPolicy (the storage layer itself is
// broken, not one series).
type ConsumerError struct {
	ID  timeseries.ID
	Err error
}

func (e *ConsumerError) Error() string {
	return fmt.Sprintf("consumer %d: permanent: %v", e.ID, e.Err)
}

func (e *ConsumerError) Unwrap() error { return e.Err }

// AsConsumerError unwraps err to a *ConsumerError, if there is one in
// the chain.
func AsConsumerError(err error) (*ConsumerError, bool) {
	var ce *ConsumerError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

// ErrMissingData classifies a series that arrived with missing (NaN)
// readings — a data-quality failure, distinct from an unreadable
// consumer (ConsumerError). Quarantine reports it; Repair imputes the
// gaps instead.
var ErrMissingData = errors.New("core: series has missing readings")

// PanicError wraps a panic recovered from a compute worker or decode
// goroutine, preserving the stack so the report stays debuggable.
type PanicError struct {
	Value any
	Stack []byte
}

// NewPanicError captures the current stack around a recovered value.
func NewPanicError(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}
