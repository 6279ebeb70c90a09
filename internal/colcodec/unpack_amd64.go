package colcodec

import "github.com/smartmeter/smartbench/internal/stats"

// useAVX2 selects unpackAVX2 for the fixed-point deltas. It is set once,
// from the CPU check the histogram kernel takes, and tests clear it to
// run the Go lanes.
var useAVX2 = stats.HasAVX2()

// unpackAVX2 decodes the first k deltas (k a positive multiple of 4) of
// the w-bit batch at body, as unpackDeltas' word loop does, into dst,
// and returns the last running integer. Each of its loads must lie in
// body (k is at most unpackDeltas' fast count), and every running
// integer must lie in [-2^51, 2^51), which exactRun checks.
//
//go:noescape
func unpackAVX2(body *byte, dst *float64, k int, w uint, mask uint64, cur int64, p float64) int64
