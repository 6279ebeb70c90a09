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

// CosineTile fills a qn x cn score tile with cosine similarities
// between qn query rows and cn candidate rows:
//
//	tile[qi*cn+ci] = Dot(Q[qi], C[ci]) * (qInv[qi] * cInv[ci])
//
// q and c are row-major buffers of qn (resp. cn) rows of the given
// length; qInv and cInv hold per-row inverse norms, with 0 standing in
// for a zero-norm row so its scores come out 0. Each buffer is cut to
// the size the shape asks for before any row is read, against its
// length rather than its capacity, so a short buffer panics with the
// same index error on every path and nothing past a slice is read.
//
// Full 4×4 blocks go through the vector kernel when the CPU has one
// (see the package comment); the rest through the Go lanes, candidates
// in groups of four (Dot4, then Dot2/DotUnchecked) reused across every
// query row while cache-hot. Because every path computes the canonical
// pattern and the inverse norms are multiplied together before scaling
// the dot, a pair's score is a pure function of the two rows: swapping
// the query and candidate sides, regrouping either side or changing
// path reproduces it bit for bit.
func CosineTile(tile, q, c []float64, qn, cn, length int, qInv, cInv []float64) {
	tile, q, c = prefix(tile, qn*cn), prefix(q, qn*length), prefix(c, cn*length)
	qInv, cInv = prefix(qInv, qn), prefix(cInv, cn)
	q4, c4 := 0, 0
	if useAVX && length >= 2 && qn >= 4 && cn >= 4 {
		q4, c4 = qn&^3, cn&^3
	}
	for qi := 0; qi < q4; qi += 4 {
		for cj := 0; cj < c4; cj += 4 {
			cosineBlock(tile[qi*cn+cj:], cn, q[qi*length:(qi+4)*length], c[cj*length:(cj+4)*length],
				length, qInv[qi:qi+4], cInv[cj:cj+4])
		}
	}
	// The Go lanes take the columns right of the blocks for every row,
	// then the rows below the blocks for the columns the blocks cover.
	cosineLanes(tile[c4:], cn, q, c[c4*length:], qn, cn-c4, length, qInv, cInv[c4:])
	cosineLanes(tile[q4*cn:], cn, q[q4*length:], c, qn-q4, c4, length, qInv[q4:], cInv)
}

// prefix returns buf[:n], panicking when buf holds fewer than n values
// whatever its capacity.
func prefix(buf []float64, n int) []float64 {
	return buf[:len(buf):len(buf)][:n]
}

// cosineBlock scores four query rows against four candidate rows with
// the vector kernel, which sums the first length&^1 elements of each
// pair into its even and odd accumulators; the odd last element and the
// reduction are done here, exactly as the Go lanes do them. tile row k
// starts at tile[k*stride].
func cosineBlock(tile []float64, stride int, q, c []float64, length int, qInv, cInv []float64) {
	q0, q1, q2, q3 := q[:length], q[length:2*length], q[2*length:3*length], q[3*length:4*length]
	c0, c1, c2, c3 := c[:length], c[length:2*length], c[2*length:3*length], c[3*length:4*length]
	var acc [32]float64
	dotPairs4x4(&acc, &q0[0], &q1[0], &q2[0], &q3[0], &c0[0], &c1[0], &c2[0], &c3[0], length/2)
	last := length - 1
	for k, qr := range [4][]float64{q0, q1, q2, q3} {
		t := tile[k*stride : k*stride+4]
		f := qInv[k]
		for j, cr := range [4][]float64{c0, c1, c2, c3} {
			s0, s1 := acc[8*k+2*j], acc[8*k+2*j+1]
			if length&1 != 0 {
				s0 += float64(qr[last] * cr[last])
			}
			t[j] = (s0 + s1) * (f * cInv[j])
		}
	}
}

// cosineLanes is CosineTile on the Go lanes alone, writing query row qi
// at tile[qi*stride:], so that it can fill a strip of a wider tile.
func cosineLanes(tile []float64, stride int, q, c []float64, qn, cn, length int, qInv, cInv []float64) {
	cj := 0
	for ; cj+4 <= cn; cj += 4 {
		c0 := c[cj*length : (cj+1)*length]
		c1 := c[(cj+1)*length : (cj+2)*length]
		c2 := c[(cj+2)*length : (cj+3)*length]
		c3 := c[(cj+3)*length : (cj+4)*length]
		for qi := 0; qi < qn; qi++ {
			row := q[qi*length : (qi+1)*length]
			d0, d1, d2, d3 := Dot4(row, c0, c1, c2, c3)
			f := qInv[qi]
			t := tile[qi*stride+cj : qi*stride+cj+4]
			t[0] = d0 * (f * cInv[cj])
			t[1] = d1 * (f * cInv[cj+1])
			t[2] = d2 * (f * cInv[cj+2])
			t[3] = d3 * (f * cInv[cj+3])
		}
	}
	if cj+2 <= cn {
		c0 := c[cj*length : (cj+1)*length]
		c1 := c[(cj+1)*length : (cj+2)*length]
		for qi := 0; qi < qn; qi++ {
			row := q[qi*length : (qi+1)*length]
			d0, d1 := Dot2(row, c0, c1)
			f := qInv[qi]
			tile[qi*stride+cj] = d0 * (f * cInv[cj])
			tile[qi*stride+cj+1] = d1 * (f * cInv[cj+1])
		}
		cj += 2
	}
	if cj < cn {
		c0 := c[cj*length : (cj+1)*length]
		for qi := 0; qi < qn; qi++ {
			row := q[qi*length : (qi+1)*length]
			tile[qi*stride+cj] = DotUnchecked(row, c0) * (qInv[qi] * cInv[cj])
		}
	}
}
