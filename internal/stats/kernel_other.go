//go:build !amd64

package stats

// useAVX is false off amd64: CosineTile runs the Go lanes alone.
var useAVX = false

func dotPairs4x4(acc *[32]float64, q0, q1, q2, q3, c0, c1, c2, c3 *float64, pairs int) {
	panic("stats: no vector kernel on this platform")
}
