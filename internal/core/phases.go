package core

import "time"

// PhaseStat describes one stage of the execution pipeline for a single
// Run: how long it took and how much data moved through it.
type PhaseStat struct {
	// Wall is the stage's busy time, summed over the goroutines that
	// ran it. At one worker a single goroutine alternates between the
	// stages, so it is elapsed wall clock; at more, the extract and
	// compute goroutines run concurrently, so the stages' summed busy
	// time can (and should) exceed the Run's elapsed time.
	Wall time.Duration
	// Rows is the number of consumer series the stage handled.
	Rows int64
	// Bytes approximates the payload the stage handled (8 bytes per
	// reading for decoded series).
	Bytes int64
}

// Add folds o into s: the sum a run takes over its goroutines' private
// accumulators once it has joined them.
func (s *PhaseStat) Add(o PhaseStat) {
	s.Wall += o.Wall
	s.Rows += o.Rows
	s.Bytes += o.Bytes
}

// Phases is the per-stage instrumentation attached to every Results by
// the execution pipeline. The three stages mirror the paper's account of
// where engine time goes: Extract is the engine-native decode (file
// scan, tuple decode, columnar decode, cluster assembly job), Compute is
// the task kernel, and Emit is result assembly/merge.
//
// For the 3-line task the compute stage additionally records the
// paper's Figure 6 sub-phases: T1 percentile extraction, T2 segmented
// regression, T3 continuity adjustment, summed across consumers (and
// across workers when the compute stage fans out).
type Phases struct {
	Extract PhaseStat
	Compute PhaseStat
	Emit    PhaseStat

	T1Quantiles  time.Duration
	T2Regression time.Duration
	T3Adjust     time.Duration

	// SummaryBlocks and DecodedBlocks count stored blocks consumed by
	// the histogram task's compressed-domain fast path: SummaryBlocks
	// were satisfied from header summaries alone, DecodedBlocks needed
	// the full float decode. Both stay zero when the fast path did not
	// run, which is every other task.
	SummaryBlocks int64
	DecodedBlocks int64
}

// Total returns the summed busy time of all three stages. At one
// worker it never exceeds the Run's elapsed time; at more it can, since
// work done concurrently counts once per goroutine.
func (p *Phases) Total() time.Duration {
	return p.Extract.Wall + p.Compute.Wall + p.Emit.Wall
}
