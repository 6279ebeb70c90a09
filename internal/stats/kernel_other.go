//go:build !amd64

package stats

// useAVX is false off amd64: CosineTile runs the Go lanes alone.
var useAVX = false

// HasAVX is false off amd64, where no package has a vector kernel.
func HasAVX() bool { return false }

// HasAVX2 is false off amd64, where no package has a vector kernel.
func HasAVX2() bool { return false }

// useAVX2 is false off amd64: AddAll runs the Go lanes alone.
var useAVX2 = false

func addAllAVX2(counts *int64, xs *float64, m, n int, min, max, span, nf, top float64) {
	panic("stats: no vector kernel on this platform")
}

func dotPairs4x4(acc *[32]float64, q0, q1, q2, q3, c0, c1, c2, c3 *float64, pairs int) {
	panic("stats: no vector kernel on this platform")
}
