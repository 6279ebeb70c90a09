// Blocked similarity kernels. The top-k similarity task (paper §3.4,
// §5.3.4) is the benchmark's O(n²) stress test, and its inner loop is a
// long float64 dot product over two rows of a contiguous matrix (see
// timeseries.FlatMatrix).
//
// Every dot product here follows one canonical pattern: one accumulator
// for the even indices, one for the odd, the products added in index
// order, an odd length's last product folded into the even accumulator,
// reduced as even+odd. Each product is written float64(x*y), which the
// Go spec says must be rounded on its own, so no compiler fuses it with
// the add (arm64's does otherwise): a fused multiply-add rounds once
// where the pattern rounds twice, and would change the bits. Because
// multiplication is commutative, a score's bits then depend only on the
// two rows, not on their order, on which kernel produced it or on the
// platform. The symmetric similarity engine relies on this: it scores
// each unordered pair once and mirrors the score.
//
// CosineTile is the one entry point. On amd64 with AVX (detected once at
// init from CPUID and XGETBV) it scores each full 4×4 block of query and
// candidate rows with an assembly micro-kernel in which every 256-bit
// register holds the even and odd accumulators of two pairs; it
// multiplies and then adds, never fuses, so each lane is the canonical
// pattern. Everything else — the rows and columns past the last full
// block, an odd length's last element, non-amd64 platforms and CPUs
// without AVX — runs the Go lanes below (Dot4, Dot2, DotUnchecked),
// which are also the oracle the kernel is tested against bit for bit.
// The lanes round differently from the scalar Dot in vector.go (a
// single accumulator), so cross-checks against Dot need a tolerance.
//
// The lanes are *unchecked*: callers guarantee the rows have equal
// length (the similarity layer validates the dataset once up front).
package stats

// DotUnchecked returns the dot product of x and y with the canonical
// even/odd two-accumulator pattern shared by all kernel lanes. len(y)
// must be >= len(x); only the first len(x) elements participate.
func DotUnchecked(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		s0 += float64(x[i] * y[i])
		s1 += float64(x[i+1] * y[i+1])
	}
	if i < n {
		s0 += float64(x[i] * y[i])
	}
	return s0 + s1
}

// Dot2 computes the dot products of one query row q against two
// candidate rows a and b in a single pass, so each loaded q element is
// used twice while hot in registers. All rows must have length >=
// len(q). Each lane accumulates exactly like DotUnchecked.
func Dot2(q, a, b []float64) (da, db float64) {
	n := len(q)
	a, b = a[:n], b[:n]
	var a0, a1, b0, b1 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		q0, q1 := q[i], q[i+1]
		a0 += float64(q0 * a[i])
		a1 += float64(q1 * a[i+1])
		b0 += float64(q0 * b[i])
		b1 += float64(q1 * b[i+1])
	}
	if i < n {
		q0 := q[i]
		a0 += float64(q0 * a[i])
		b0 += float64(q0 * b[i])
	}
	return a0 + a1, b0 + b1
}

// Dot4 computes the dot products of one query row q against four
// candidate rows in a single pass — the widest Go lane: eight
// accumulators of independent multiply-adds per iteration, with the
// query row read once for all four candidates. Each lane accumulates
// exactly like DotUnchecked.
func Dot4(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	n := len(q)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	var a0, a1, b0, b1, c0, c1, d0, d1 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		q0, q1 := q[i], q[i+1]
		a0 += float64(q0 * a[i])
		a1 += float64(q1 * a[i+1])
		b0 += float64(q0 * b[i])
		b1 += float64(q1 * b[i+1])
		c0 += float64(q0 * c[i])
		c1 += float64(q1 * c[i+1])
		d0 += float64(q0 * d[i])
		d1 += float64(q1 * d[i+1])
	}
	if i < n {
		q0 := q[i]
		a0 += float64(q0 * a[i])
		b0 += float64(q0 * b[i])
		c0 += float64(q0 * c[i])
		d0 += float64(q0 * d[i])
	}
	return a0 + a1, b0 + b1, c0 + c1, d0 + d1
}

// CosineTile fills a len(qRows) x len(cRows) score tile with the cosine
// similarities between rows of one row-major matrix, data, whose rows
// have the given length and inverse norms inv:
//
//	tile[qi*cn+ci] = Dot(row qRows[qi], row cRows[ci]) * (inv[qRows[qi]] * inv[cRows[ci]])
//
// with cn = len(cRows) and 0 standing in inv for a zero-norm row, so its
// scores come out 0. The rows are named by index rather than cut out as
// blocks, so a caller can score any grouping of the matrix's rows (the
// similarity scan's load-shape order) without permuting or copying it.
// The tile and every named row and inverse norm are cut from their
// buffers before any row is read, against the buffers' lengths rather
// than their capacities, so a short buffer or an index past the matrix
// panics with the same index error on every path and nothing past a
// slice is read.
//
// Full 4×4 blocks go through the vector kernel when the CPU has one
// (see the package comment); the rest through the Go lanes, candidates
// in groups of four (Dot4, then Dot2/DotUnchecked) reused across every
// query row while cache-hot. Because every path computes the canonical
// pattern and the inverse norms are multiplied together before scaling
// the dot, a pair's score is a pure function of the two rows: swapping
// the query and candidate sides, regrouping or reordering either side
// or changing path reproduces it bit for bit.
func CosineTile(tile, data []float64, length int, inv []float64, qRows, cRows []int) {
	qn, cn := len(qRows), len(cRows)
	tile = tile[:len(tile):len(tile)][:qn*cn]
	data, inv = data[:len(data):len(data)], inv[:len(inv):len(inv)]
	for _, rows := range [2][]int{qRows, cRows} {
		for _, r := range rows {
			_, _ = data[r*length:(r+1)*length], inv[r]
		}
	}
	q4, c4 := 0, 0
	if useAVX && length >= 2 && qn >= 4 && cn >= 4 {
		q4, c4 = qn&^3, cn&^3
	}
	for qi := 0; qi < q4; qi += 4 {
		for cj := 0; cj < c4; cj += 4 {
			cosineBlock(tile[qi*cn+cj:], cn, data, length, inv, qRows[qi:qi+4], cRows[cj:cj+4])
		}
	}
	// The Go lanes take the columns right of the blocks for every row,
	// then the rows below the blocks for the columns the blocks cover.
	cosineLanes(tile[c4:], cn, data, length, inv, qRows, cRows[c4:])
	cosineLanes(tile[q4*cn:], cn, data, length, inv, qRows[q4:], cRows[:c4])
}

// matrixRow returns row r of the row-major data.
func matrixRow(data []float64, length, r int) []float64 {
	return data[r*length : (r+1)*length]
}

// cosineBlock scores four query rows against four candidate rows with
// the vector kernel, which sums the first length&^1 elements of each
// pair into its even and odd accumulators; the odd last element and the
// reduction are done here, exactly as the Go lanes do them. tile row k
// starts at tile[k*stride].
func cosineBlock(tile []float64, stride int, data []float64, length int, inv []float64, qRows, cRows []int) {
	q0, q1 := matrixRow(data, length, qRows[0]), matrixRow(data, length, qRows[1])
	q2, q3 := matrixRow(data, length, qRows[2]), matrixRow(data, length, qRows[3])
	c0, c1 := matrixRow(data, length, cRows[0]), matrixRow(data, length, cRows[1])
	c2, c3 := matrixRow(data, length, cRows[2]), matrixRow(data, length, cRows[3])
	var acc [32]float64
	dotPairs4x4(&acc, &q0[0], &q1[0], &q2[0], &q3[0], &c0[0], &c1[0], &c2[0], &c3[0], length/2)
	last := length - 1
	for k, qr := range [4][]float64{q0, q1, q2, q3} {
		t := tile[k*stride : k*stride+4]
		f := inv[qRows[k]]
		for j, cr := range [4][]float64{c0, c1, c2, c3} {
			s0, s1 := acc[8*k+2*j], acc[8*k+2*j+1]
			if length&1 != 0 {
				s0 += float64(qr[last] * cr[last])
			}
			t[j] = (s0 + s1) * (f * inv[cRows[j]])
		}
	}
}

// cosineLanes is CosineTile on the Go lanes alone, writing query row qi
// at tile[qi*stride:], so that it can fill a strip of a wider tile.
func cosineLanes(tile []float64, stride int, data []float64, length int, inv []float64, qRows, cRows []int) {
	cn := len(cRows)
	cj := 0
	for ; cj+4 <= cn; cj += 4 {
		c0, c1 := matrixRow(data, length, cRows[cj]), matrixRow(data, length, cRows[cj+1])
		c2, c3 := matrixRow(data, length, cRows[cj+2]), matrixRow(data, length, cRows[cj+3])
		for qi, q := range qRows {
			d0, d1, d2, d3 := Dot4(matrixRow(data, length, q), c0, c1, c2, c3)
			f := inv[q]
			t := tile[qi*stride+cj : qi*stride+cj+4]
			t[0] = d0 * (f * inv[cRows[cj]])
			t[1] = d1 * (f * inv[cRows[cj+1]])
			t[2] = d2 * (f * inv[cRows[cj+2]])
			t[3] = d3 * (f * inv[cRows[cj+3]])
		}
	}
	if cj+2 <= cn {
		c0, c1 := matrixRow(data, length, cRows[cj]), matrixRow(data, length, cRows[cj+1])
		for qi, q := range qRows {
			d0, d1 := Dot2(matrixRow(data, length, q), c0, c1)
			f := inv[q]
			tile[qi*stride+cj] = d0 * (f * inv[cRows[cj]])
			tile[qi*stride+cj+1] = d1 * (f * inv[cRows[cj+1]])
		}
		cj += 2
	}
	if cj < cn {
		c0 := matrixRow(data, length, cRows[cj])
		for qi, q := range qRows {
			tile[qi*stride+cj] = DotUnchecked(matrixRow(data, length, q), c0) * (inv[q] * inv[cRows[cj]])
		}
	}
}
