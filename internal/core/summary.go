package core

import "github.com/smartmeter/smartbench/internal/timeseries"

// BlockStats summarizes one stored block (a contiguous row range of a
// single consumer's series) without decoding it. Min and Max are
// first-attainer extrema over the block's non-NaN values under IEEE <
// and > — the same scan stats.MinMax performs — so for a NaN-free
// series, folding block stats in order reproduces the full-series scan
// bit for bit. Sum and SumSq accumulate the non-NaN values in block
// order. When the block holds no non-NaN values Min and Max are NaN.
type BlockStats struct {
	// Start is the row offset of the block within the series.
	Start int
	// Count is the number of rows in the block.
	Count int
	// NaNs is the number of NaN readings in the block. Compressed-domain
	// fast paths must decode any block with NaNs > 0 (or fall back
	// entirely) to preserve NaN-propagation semantics.
	NaNs  int
	Min   float64
	Max   float64
	Sum   float64
	SumSq float64
	// Flags carries the block-structure facts recorded at encode time.
	Flags BlockFlags
}

// BlockFlags describe structural properties of a stored block that
// compressed-domain kernels exploit. They are facts about the stored
// bit patterns, set by the encoder, never inferred at read time.
type BlockFlags uint32

const (
	// BlockHourLanes: the block stores per-hour sum lanes (and, when
	// BlockHourPeriodic, a 24-value pattern) after its values. Never set
	// on a block with NaNs. No reader consumes the lanes today.
	BlockHourLanes BlockFlags = 1 << iota
	// BlockConstant: every value in the block shares one bit pattern,
	// equal to the summary Min — the block reconstructs as a fill.
	BlockConstant
	// BlockHourPeriodic: the block is day-aligned and each hour-of-day
	// holds one bit pattern — the block reconstructs by tiling the
	// stored 24-value pattern.
	BlockHourPeriodic
)

// SummarySource is implemented by engines whose storage keeps per-block
// statistics alongside the compressed payloads. The exec layer uses it
// for compressed-domain fast paths: kernels that only need bucket
// counts or sums can consume block headers and decode raw floats only
// for the blocks where summaries are not enough. Wrappers that perturb
// data (fault injectors) must NOT forward this interface — the
// summaries describe the stored bytes, not the perturbed stream.
type SummarySource interface {
	// NewSummaryCursors opens up to max independent cursors over
	// per-consumer block summaries, partitioned the way
	// PartitionedSource.NewCursors partitions rows: each cursor walks a
	// contiguous range of consumers in ascending household-ID order,
	// the ranges are pairwise disjoint, ascend with the slice index and
	// jointly cover every consumer once. Fewer than max cursors may
	// come back — one when the storage cannot be split, none when it is
	// empty — but never more, and max must be >= 1. The cursors may be
	// driven concurrently, one goroutine each, and are independent of
	// any row cursors: reading summaries does not consume or disturb
	// NewCursor/NewCursors streams. Close on each is required
	// regardless of how far it was drained.
	NewSummaryCursors(max int) ([]SummaryCursor, error)
}

// SummaryCursor walks the consumers of its partition in ascending ID
// order, yielding block headers, and can decode any block of the
// current consumer on demand.
type SummaryCursor interface {
	// NextSummary returns the next consumer's ID and its block stats in
	// row order. The returned slice is only valid until the next call.
	// It returns io.EOF after the last consumer.
	NextSummary() (timeseries.ID, []BlockStats, error)
	// DecodeBlock decodes block b (an index into the slice returned by
	// the latest NextSummary) of the current consumer into dst, which
	// must hold at least the block's Count values. The decoded floats
	// are bit-identical to what the row cursors produce.
	DecodeBlock(b int, dst []float64) error
	// Close releases the cursor. It is idempotent.
	Close() error
}
