package stats

// useAVX selects the vector kernel for CosineTile's full 4×4 blocks. It
// is set once, from the CPU, and tests clear it to run the Go lanes.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX (CPUID.1:ECX bits 27 OSXSAVE
// and 28 AVX) and the OS saves the YMM state (XCR0 bits 1 and 2).
func hasAVX() bool

// dotPairs4x4 sums, for each pair (q_k, c_j) of the four query and four
// candidate rows, the products of elements 0, 2, …, 2·pairs−2 into
// acc[8k+2j] and of elements 1, 3, …, 2·pairs−1 into acc[8k+2j+1], each
// accumulator in index order, multiplying then adding (no FMA): the
// canonical pattern up to the odd tail and the final even+odd. Every
// row must hold at least 2·pairs elements.
//
//go:noescape
func dotPairs4x4(acc *[32]float64, q0, q1, q2, q3, c0, c1, c2, c3 *float64, pairs int)
