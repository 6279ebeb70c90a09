package core

import "github.com/smartmeter/smartbench/internal/timeseries"

// BlockStats summarizes one stored block (a contiguous row range of a
// single consumer's series) without decoding it. Min and Max are
// first-attainer extrema over the block's non-NaN values under IEEE <
// and > — the same scan stats.MinMax performs — so for a NaN-free
// series, folding block stats in order reproduces the full-series scan
// bit for bit. When the block holds no non-NaN values Min and Max are
// NaN. These are all a store keeps per block: the histogram's summary
// path (internal/exec) reads nothing else.
type BlockStats struct {
	// Start is the row offset of the block within the series.
	Start int
	// Count is the number of rows in the block.
	Count int
	// NaNs is the number of NaN readings in the block. Compressed-domain
	// fast paths must decode any block with NaNs > 0 (or fall back
	// entirely) to preserve NaN-propagation semantics.
	NaNs int
	Min  float64
	Max  float64
}

// SummaryCursor is optionally implemented by cursors over storage that
// keeps per-block statistics beside the compressed payloads (the column
// store's segment headers). NextSummary is a second way to advance the
// cursor: it moves to the same next consumer Next would yield and hands
// out its block headers instead of its series, and any block of that
// consumer can then be decoded on demand. The exec layer's histogram
// uses it to count blocks whose min and max share a bucket without
// decoding them. Wrappers that perturb data (fault injectors) and
// cursors that merge other data in (live snapshots) must NOT implement
// it: the summaries describe the stored bytes, not the stream Next
// yields.
type SummaryCursor interface {
	// NextSummary returns the next consumer's ID and its block stats in
	// row order. The returned slice is only valid until the next call.
	// It returns io.EOF after the last consumer or once the cursor is
	// closed.
	NextSummary() (timeseries.ID, []BlockStats, error)
	// DecodeBlock decodes block b (an index into the slice returned by
	// the latest NextSummary) of that consumer into dst, which must hold
	// at least the block's Count values. The decoded floats are
	// bit-identical to what Next produces. It fails unless the cursor's
	// last move was a NextSummary that returned a consumer: before the
	// first, after io.EOF, and after Next, Reset or Close.
	DecodeBlock(b int, dst []float64) error
}
