//go:build !amd64

package colcodec

// useAVX2 is false off amd64: unpackDeltas runs the Go lanes alone.
var useAVX2 = false

func unpackAVX2(body *byte, dst *float64, k int, w uint, mask uint64, cur int64, p float64) int64 {
	panic("colcodec: no vector kernel on this platform")
}
