// Package fault injects deterministic, seeded faults into an engine's
// cursor stream so the failure-containment machinery (core.FailPolicy,
// exec's quarantine and repair paths, the chaos conformance suite) can
// be exercised and benchmarked without flaky fixtures.
//
// Every fault decision is a pure function of (Config.Seed, consumer ID):
// which consumers fail, and how, does not depend on cursor order,
// partitioning, worker count, or wall-clock time. A test can therefore
// compute the exact expected quarantine set up front (FailingIDs) and
// assert that a run reports precisely those consumers in
// Results.Failed, on any engine and any execution path.
//
// The injected fault taxonomy mirrors the failure model in DESIGN.md:
//
//   - Permanent per-consumer errors: Next consumes the series and fails
//     with a core.ConsumerError. No storage raises an error that a
//     repeated read would clear, so none is injected.
//   - Corrupt readings: a deterministic contiguous window of the
//     consumer's readings is replaced with NaN on a private copy
//     (engine-owned buffers are never mutated).
//   - All-missing series: every reading NaN — the case Repair must
//     demote to quarantine (impute.ErrAllMissing).
//   - Read delays: a fixed per-Next sleep, cancellable through the
//     bound context.
//   - Mid-stream truncation: after TruncateAfter successful series, the
//     rest of the stream fails with permanent per-consumer errors, as
//     if the tail of the storage vanished.
package fault

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

var nan = math.NaN()

// Sentinel errors carried inside the injected core.ConsumerErrors.
var (
	// ErrPermanent is the cause of an injected permanent storage error.
	ErrPermanent = errors.New("fault: injected permanent storage error")
	// ErrTruncated is the cause reported for every consumer past the
	// truncation point.
	ErrTruncated = errors.New("fault: stream truncated")
)

// Kind classifies the fault a consumer draws.
type Kind int

const (
	// None: the consumer is served untouched.
	None Kind = iota
	// Permanent: Next consumes the series and fails permanently.
	Permanent
	// Corrupt: a window of readings is NaN on a copy of the series.
	Corrupt
	// AllMissing: every reading is NaN on a copy of the series.
	AllMissing
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Permanent:
		return "permanent"
	case Corrupt:
		return "corrupt"
	case AllMissing:
		return "all-missing"
	default:
		return "unknown"
	}
}

// Config selects fault rates and shapes. Rates are probabilities in
// [0, 1] and are mutually exclusive per consumer: each consumer draws
// one uniform value from splitmix64(Seed ^ id) and falls into the first
// matching band, in the order Permanent, AllMissing, Corrupt. The zero value injects nothing.
type Config struct {
	// Seed drives every fault decision. Two configs with equal rates and
	// seeds injure exactly the same consumers in exactly the same way.
	Seed uint64

	// Permanent is the rate of permanent per-consumer extraction errors.
	Permanent float64
	// AllMissing is the rate of series whose every reading becomes NaN.
	AllMissing float64
	// Corrupt is the rate of series that get a NaN window.
	Corrupt float64
	// CorruptFrac is the fraction of readings the NaN window covers,
	// clamped to at least one reading. Defaults to 0.10.
	CorruptFrac float64

	// Delay is slept before every Next (after the first), cancellable
	// through the bound context. Zero means no delay.
	Delay time.Duration
	// TruncateAfter, when positive, fails every consumer after that many
	// successful series per cursor with a permanent ErrTruncated error.
	// With partition cursors the count is per partition.
	TruncateAfter int

	// Calls, when not nil, counts the Next calls of every cursor under
	// this config, each at its start: a test reads it at some event and
	// again at the end to bound what a pipeline started in between.
	Calls *atomic.Int64
}

func (c Config) corruptFrac() float64 {
	if c.CorruptFrac <= 0 {
		return 0.10
	}
	if c.CorruptFrac > 1 {
		return 1
	}
	return c.CorruptFrac
}

// splitmix64 is the SplitMix64 mixer — a bijective avalanche over
// uint64, so per-ID decisions are independent and reproducible with no
// shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a uint64 onto [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Decision salts: distinct streams for the kind draw and the corrupt
// window placement, so changing one rate never reshuffles the other.
const (
	saltKind   = 0xfa017c5d00000001
	saltWindow = 0xfa017c5d00000002
)

// Decide returns the fault the consumer draws under this config. It is
// the single source of truth: the injecting cursor and the expectation
// helpers (Plan, FailingIDs) both call it.
func (c Config) Decide(id timeseries.ID) Kind {
	u := unit(splitmix64(c.Seed ^ uint64(id) ^ saltKind))
	p := c.Permanent
	if u < p {
		return Permanent
	}
	p += c.AllMissing
	if u < p {
		return AllMissing
	}
	p += c.Corrupt
	if u < p {
		return Corrupt
	}
	return None
}

// Plan maps every consumer to its drawn fault, omitting None. Tests use
// it to compute expectations before a run.
func (c Config) Plan(ids []timeseries.ID) map[timeseries.ID]Kind {
	plan := make(map[timeseries.ID]Kind)
	for _, id := range ids {
		if k := c.Decide(id); k != None {
			plan[id] = k
		}
	}
	return plan
}

// FailingIDs returns, in input order, the consumers a run under the
// given policy is expected to quarantine (Results.Failed):
//
//   - Permanent faults fail under Quarantine and Repair.
//   - AllMissing fails under both policies (Repair demotes it).
//   - Corrupt fails under Quarantine and is saved by Repair.
//
// Truncation (TruncateAfter) is order-dependent and therefore not
// modeled here; tests using it should assert on counts. Under FailFast
// nothing is quarantined — the first fault aborts the run.
func (c Config) FailingIDs(ids []timeseries.ID, policy core.FailPolicy) []timeseries.ID {
	if policy == core.FailFast {
		return nil
	}
	var out []timeseries.ID
	for _, id := range ids {
		switch c.Decide(id) {
		case Permanent, AllMissing:
			out = append(out, id)
		case Corrupt:
			if policy == core.Quarantine {
				out = append(out, id)
			}
		}
	}
	return out
}

// corruptWindow returns the [lo, hi) reading window NaN'd for a corrupt
// consumer: a contiguous run whose length is CorruptFrac of the series
// (at least 1) and whose deterministic offset keeps at least one real
// reading on each side when the series is long enough — the shape the
// hybrid imputer handles best, so Repair runs can be asserted exactly.
func (c Config) corruptWindow(id timeseries.ID, n int) (lo, hi int) {
	if n == 0 {
		return 0, 0
	}
	m := int(c.corruptFrac() * float64(n))
	if m < 1 {
		m = 1
	}
	if m > n-2 {
		m = n - 2
	}
	if m < 1 {
		// Series too short to keep an edge on both sides; NaN it whole.
		return 0, n
	}
	span := n - 1 - m // offsets in [1, n-1-m]
	off := 1 + int(splitmix64(c.Seed^uint64(id)^saltWindow)%uint64(span))
	return off, off + m
}

// injure returns the series to serve for a consumer that drew Corrupt
// or AllMissing: a clone with NaN readings. The engine's series is
// never touched — colstore and warm-path cursors hand out views into
// engine-owned buffers.
func (c Config) injure(k Kind, s *timeseries.Series) *timeseries.Series {
	cp := s.Clone()
	switch k {
	case AllMissing:
		for i := range cp.Readings {
			cp.Readings[i] = nan
		}
	case Corrupt:
		lo, hi := c.corruptWindow(s.ID, len(cp.Readings))
		for i := lo; i < hi; i++ {
			cp.Readings[i] = nan
		}
	}
	return cp
}
