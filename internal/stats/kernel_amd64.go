package stats

// useAVX selects the vector kernel for CosineTile's full 4×4 blocks. It
// is set once, from the CPU, and tests clear it to run the Go lanes.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX (CPUID.1:ECX bits 27 OSXSAVE
// and 28 AVX) and the OS saves the YMM state (XCR0 bits 1 and 2).
func hasAVX() bool

// HasAVX reports whether this CPU runs AVX code: the check other
// packages' vector kernels take, so that every kernel selects its path
// the same way.
func HasAVX() bool { return hasAVX() }

// cpuidAVX2 reports whether CPUID leaf 7 lists AVX2 (EBX bit 5). It
// says nothing of the OS; hasAVX's XCR0 test does.
func cpuidAVX2() bool

// HasAVX2 reports whether this CPU runs AVX2 code: AVX with the YMM
// state saved by the OS, and AVX2 itself. It is the one check the
// histogram's and the fixed-point decoder's kernels take.
func HasAVX2() bool { return hasAVX() && cpuidAVX2() }

// useAVX2 selects AddAll's vector kernel. It is set once, from the CPU,
// and tests clear it to run the Go lanes.
var useAVX2 = HasAVX2()

// addAllAVX2 counts xs[0:m] (m a positive multiple of 4) into counts
// (n buckets, 1 <= n <= maxKernelBuckets) exactly as addAllLanes does,
// given min < max, span = max-min, nf = float64(n) and top =
// float64(n-1). Four readings share a 256-bit register; each lane
// counts into its own sub-histogram, summed into counts at the end.
//
//go:noescape
func addAllAVX2(counts *int64, xs *float64, m, n int, min, max, span, nf, top float64)

// dotPairs4x4 sums, for each pair (q_k, c_j) of the four query and four
// candidate rows, the products of elements 0, 2, …, 2·pairs−2 into
// acc[8k+2j] and of elements 1, 3, …, 2·pairs−1 into acc[8k+2j+1], each
// accumulator in index order, multiplying then adding (no FMA): the
// canonical pattern up to the odd tail and the final even+odd. Every
// row must hold at least 2·pairs elements.
//
//go:noescape
func dotPairs4x4(acc *[32]float64, q0, q1, q2, q3, c0, c1, c2, c3 *float64, pairs int)
