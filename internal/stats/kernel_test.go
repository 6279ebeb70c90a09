package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tol bounds the rounding difference between the unrolled/fused kernels
// and the scalar Dot reference for the vector lengths used here.
const tol = 1e-12

// laneLengths are the row lengths the bit-for-bit tests sweep: odd and
// even, below and above one kernel step, and the benchmark's year.
var laneLengths = []int{1, 2, 3, 7, 8, 61, 101, 8760}

// tileShapes are the query and candidate counts the bit-for-bit tests
// sweep: every remainder against the 4×4 block, and two whole blocks.
var tileShapes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*4 - 2
	}
	return v
}

// hostileVec is randVec with, when hostile, the values arithmetic does
// not survive sprinkled in: NaN, ±Inf, a value whose square overflows
// and a denormal.
func hostileVec(rng *rand.Rand, n int, hostile bool) []float64 {
	v := randVec(rng, n)
	if !hostile {
		return v
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-310, math.Copysign(0, -1)}
	for i := range v {
		if rng.Intn(16) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// invNorms returns the inverse norms of the n rows of length in rows,
// the way timeseries.PackMatrix computes them (0 for a zero norm).
func invNorms(rows []float64, n, length int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if nm := Norm(rows[i*length : (i+1)*length]); !IsZero(nm) {
			out[i] = 1 / nm
		}
	}
	return out
}

// stacked returns q's qn rows and then c's cn rows as one matrix, with
// its inverse norms and the row indices of each side, the shape
// CosineTile takes.
func stacked(q, c []float64, qn, cn, length int) (data, inv []float64, qRows, cRows []int) {
	data = append(append([]float64(nil), q...), c...)
	inv = invNorms(data, qn+cn, length)
	for r := range qn + cn {
		if r < qn {
			qRows = append(qRows, r)
		} else {
			cRows = append(cRows, r)
		}
	}
	return data, inv, qRows, cRows
}

// reversed returns a reversed copy of rows.
func reversed(rows []int) []int {
	out := slices.Clone(rows)
	slices.Reverse(out)
	return out
}

// sameBits reports whether a and b are the same float64, bit for bit,
// with every NaN equal to every other (payloads are not part of the
// contract).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// withLanes runs f with the vector kernels switched off, so that
// CosineTile and AddAll take the Go lanes everywhere.
func withLanes(f func()) {
	saved, saved2 := useAVX, useAVX2
	useAVX, useAVX2 = false, false
	defer func() { useAVX, useAVX2 = saved, saved2 }()
	f()
}

// TestDotUncheckedMatchesDot sweeps lengths around the unroll width,
// including 0 and lengths not divisible by 4.
func TestDotUncheckedMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 33; n++ {
		x, y := randVec(rng, n), randVec(rng, n)
		want, err := Dot(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := DotUnchecked(x, y); math.Abs(got-want) > tol {
			t.Errorf("n=%d: DotUnchecked = %g, Dot = %g", n, got, want)
		}
	}
}

func TestDot2Dot4MatchDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 15, 33, 101} {
		q := randVec(rng, n)
		rows := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		var want [4]float64
		for i, r := range rows {
			w, err := Dot(q, r)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		da, db := Dot2(q, rows[0], rows[1])
		if math.Abs(da-want[0]) > tol || math.Abs(db-want[1]) > tol {
			t.Errorf("n=%d: Dot2 = (%g, %g), want (%g, %g)", n, da, db, want[0], want[1])
		}
		ga, gb, gc, gd := Dot4(q, rows[0], rows[1], rows[2], rows[3])
		for i, g := range []float64{ga, gb, gc, gd} {
			if math.Abs(g-want[i]) > tol {
				t.Errorf("n=%d: Dot4[%d] = %g, want %g", n, i, g, want[i])
			}
		}
	}
}

// TestKernelLanesBitIdentical pins the invariant the symmetric
// similarity engine builds on: every lane of every kernel uses the same
// even/odd accumulation pattern, so a dot product's bits do not depend
// on the argument order or on which fused kernel computed it — with
// hostile values too.
func TestKernelLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range laneLengths {
		for _, hostile := range []bool{false, true} {
			q := hostileVec(rng, n, hostile)
			rows := [][]float64{hostileVec(rng, n, hostile), hostileVec(rng, n, hostile),
				hostileVec(rng, n, hostile), hostileVec(rng, n, hostile)}
			want := [4]float64{
				DotUnchecked(q, rows[0]), DotUnchecked(q, rows[1]),
				DotUnchecked(q, rows[2]), DotUnchecked(q, rows[3]),
			}
			ga, gb, gc, gd := Dot4(q, rows[0], rows[1], rows[2], rows[3])
			for i, g := range []float64{ga, gb, gc, gd} {
				if !sameBits(g, want[i]) {
					t.Errorf("n=%d hostile=%v: Dot4 lane %d = %g, DotUnchecked = %g", n, hostile, i, g, want[i])
				}
			}
			da, db := Dot2(q, rows[0], rows[1])
			if !sameBits(da, want[0]) || !sameBits(db, want[1]) {
				t.Errorf("n=%d hostile=%v: Dot2 = (%g, %g), DotUnchecked = (%g, %g)",
					n, hostile, da, db, want[0], want[1])
			}
			// Commutativity: swapping the operand order reproduces the bits.
			for i, r := range rows {
				if got := DotUnchecked(r, q); !sameBits(got, want[i]) {
					t.Errorf("n=%d hostile=%v: DotUnchecked(r%d, q) = %g, mirrored = %g", n, hostile, i, got, want[i])
				}
			}
		}
	}
}

// cosineRef is the scalar reference for one pair, mirroring the
// existing per-pair formula (dot / (|x||y|)).
func cosineRef(t *testing.T, x, y []float64) float64 {
	t.Helper()
	dot, err := Dot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := Norm(x), Norm(y)
	if IsZero(nx) || IsZero(ny) {
		return 0
	}
	return dot / (nx * ny)
}

// TestCosineTileMatchesScalar checks CosineTile three ways over every
// shape in tileShapes and every length in laneLengths, with a zero-norm
// row on each side: against the scalar cosine within tol when the
// values are ordinary; bit for bit against the Go lanes alone (the
// vector kernel's oracle), hostile values included; and bit for bit
// against itself with the query and candidate sides swapped and each
// side reversed, which is what the mirroring and the load-shape order
// in the similarity scan rely on.
func TestCosineTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, length := range laneLengths {
		for _, qn := range tileShapes {
			for _, cn := range tileShapes {
				hostile := (qn+cn+length)%2 == 1
				q := hostileVec(rng, qn*length, hostile)
				c := hostileVec(rng, cn*length, hostile)
				// Zero out query row 2 and candidate row 1 (when present)
				// to cover the zero-norm contract: their scores must come
				// out 0.
				if qn > 2 {
					clear(q[2*length : 3*length])
				}
				if cn > 1 {
					clear(c[length : 2*length])
				}
				data, inv, qRows, cRows := stacked(q, c, qn, cn, length)
				tile := make([]float64, qn*cn)
				CosineTile(tile, data, length, inv, qRows, cRows)
				lanes := make([]float64, qn*cn)
				cosineLanes(lanes, cn, data, length, inv, qRows, cRows)
				swapped := make([]float64, qn*cn)
				CosineTile(swapped, data, length, inv, reversed(cRows), reversed(qRows))
				for qi := 0; qi < qn; qi++ {
					for ci := 0; ci < cn; ci++ {
						got := tile[qi*cn+ci]
						where := fmt.Sprintf("len=%d qn=%d cn=%d tile[%d,%d]", length, qn, cn, qi, ci)
						if !sameBits(got, lanes[qi*cn+ci]) {
							t.Fatalf("%s = %g, Go lanes %g", where, got, lanes[qi*cn+ci])
						}
						if mirror := swapped[(cn-1-ci)*qn+qn-1-qi]; !sameBits(got, mirror) {
							t.Fatalf("%s = %g, swapped and reversed sides %g", where, got, mirror)
						}
						if hostile {
							continue
						}
						if (qn > 2 && qi == 2) || (cn > 1 && ci == 1) {
							if !IsZero(got) {
								t.Fatalf("%s = %g against a zero-norm row, want 0", where, got)
							}
							continue
						}
						want := cosineRef(t, q[qi*length:(qi+1)*length], c[ci*length:(ci+1)*length])
						if math.Abs(got-want) > tol {
							t.Fatalf("%s = %g, want %g", where, got, want)
						}
					}
				}
			}
		}
	}
}

// goldenTileHash is the FNV-1a hash of the score bits goldenTiles
// produces. It was taken on the scalar kernel before the vector kernel
// existed: scores must never change bits, on any path or platform.
const goldenTileHash = 0x7aff1b5f4ab46991

// goldenTiles hashes the score bits of seeded CosineTile calls over
// mixed shapes and lengths, zero-norm rows included.
func goldenTiles() uint64 {
	rng := rand.New(rand.NewSource(2015))
	h := fnv.New64a()
	var b [8]byte
	for trial := 0; trial < 60; trial++ {
		qn, cn := 1+rng.Intn(16), 1+rng.Intn(16)
		length := 1 + rng.Intn(200)
		if trial%10 == 0 {
			length = 8760
		}
		q, c := randVec(rng, qn*length), randVec(rng, cn*length)
		if trial%3 == 0 {
			clear(c[(cn-1)*length:])
		}
		data, inv, qRows, cRows := stacked(q, c, qn, cn, length)
		tile := make([]float64, qn*cn)
		CosineTile(tile, data, length, inv, qRows, cRows)
		for _, s := range tile {
			bits := math.Float64bits(s)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestCosineTileGolden pins the bits of every score against a constant,
// on the path this CPU selects and on the Go lanes alone.
func TestCosineTileGolden(t *testing.T) {
	if got := goldenTiles(); got != goldenTileHash {
		t.Errorf("CosineTile (vector kernel %v): hash %#x, want %#x", useAVX, got, uint64(goldenTileHash))
	}
	withLanes(func() {
		if got := goldenTiles(); got != goldenTileHash {
			t.Errorf("CosineTile (Go lanes): hash %#x, want %#x", got, uint64(goldenTileHash))
		}
	})
}

// TestCosineTileNoAllocs pins CosineTile as allocation-free: the
// similarity scan calls it once per tile pair.
func TestCosineTileNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const qn, cn, length = 9, 7, 61
	data, inv, qRows, cRows := stacked(randVec(rng, qn*length), randVec(rng, cn*length), qn, cn, length)
	tile := make([]float64, qn*cn)
	if n := testing.AllocsPerRun(20, func() {
		CosineTile(tile, data, length, inv, qRows, cRows)
	}); n != 0 {
		t.Errorf("CosineTile allocates %v times per call", n)
	}
}

// tilePanic runs CosineTile and returns what it panicked with, or "".
func tilePanic(tile, data []float64, length int, inv []float64, qRows, cRows []int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	CosineTile(tile, data, length, inv, qRows, cRows)
	return ""
}

// TestCosineTileShortBuffersPanic gives CosineTile a matrix one value
// short of a row it names, on either side, or inverse norms one short:
// it must panic with the same index error on the vector path as on the
// Go lanes, before any row is read.
func TestCosineTileShortBuffersPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const qn, cn, length = 8, 8, 13
	data, inv, qRows, cRows := stacked(randVec(rng, qn*length), randVec(rng, cn*length), qn, cn, length)
	tile := make([]float64, qn*cn)
	for _, tc := range []struct {
		name         string
		data, inv    []float64
		qRows, cRows []int
	}{
		{"short matrix, query side", data[:len(data)-1], inv, cRows, qRows},
		{"short matrix, candidate side", data[:len(data)-1], inv, qRows, cRows},
		{"short inverse norms", data, inv[:len(inv)-1], qRows, cRows},
	} {
		got := tilePanic(tile, tc.data, length, tc.inv, tc.qRows, tc.cRows)
		var want string
		withLanes(func() { want = tilePanic(tile, tc.data, length, tc.inv, tc.qRows, tc.cRows) })
		if got == "" || got != want {
			t.Errorf("%s: vector path panicked with %q, Go lanes with %q", tc.name, got, want)
		}
	}
}

// fuzzValue maps one fuzz byte to a reading: mostly small multiples of
// 1/16, so that equal rows and zero norms are a mutation away, and a
// few bytes for what arithmetic does not survive.
func fuzzValue(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return math.Copysign(0, -1)
	case 251:
		return 1e300
	case 250:
		return 1e-310
	case 249:
		return -math.MaxFloat64
	}
	return float64(b)/16 - 8
}

// FuzzCosineTileMatchesLanes turns bytes into a matrix of 1 to 16 rows
// (the first byte) of 1 to 64 readings (the second), a tile that names
// its rows by index, repeats and any order allowed (the third byte: 1 to
// 16 query rows, the fourth: 1 to 16 candidate rows, then one byte per
// index), a shortfall (the next byte: none, one value off the matrix or
// one off the inverse norms) and readings (the rest, repeated when
// short), and requires CosineTile to equal the Go lanes bit for bit —
// or, with a buffer short, to panic exactly as they do.
func FuzzCosineTileMatchesLanes(f *testing.F) {
	f.Add([]byte{8, 2, 4, 4, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3})
	f.Add([]byte{14, 7, 9, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 255, 17, 3, 254, 60, 61, 252})
	f.Add([]byte{16, 33, 8, 8, 15, 14, 13, 12, 11, 10, 9, 8, 0, 1, 2, 3, 4, 5, 6, 7, 0, 251, 251, 250, 128, 249, 253})
	f.Add([]byte{6, 3, 5, 6, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 1, 40, 41, 42})
	f.Add([]byte{4, 1, 16, 4, 0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 3, 2, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, length := 1+int(data[0])%16, 1+int(data[1])%64
		qn, cn := 1+int(data[2])%16, 1+int(data[3])%16
		data = data[4:]
		if len(data) < qn+cn+2 {
			return
		}
		qRows, cRows := make([]int, qn), make([]int, cn)
		for i := range qRows {
			qRows[i] = int(data[i]) % n
		}
		for i := range cRows {
			cRows[i] = int(data[qn+i]) % n
		}
		short := int(data[qn+cn]) % 3 // 0 none, 1 matrix short, 2 inverse norms short
		body := data[qn+cn+1:]
		m := make([]float64, n*length)
		for i := range m {
			m[i] = fuzzValue(body[i%len(body)])
		}
		inv := invNorms(m, n, length)
		tile := make([]float64, qn*cn)
		if short != 0 {
			// Make the shortfall reach a named row: the last row of the
			// matrix, named on the candidate side.
			cRows[cn-1] = n - 1
			if short == 1 {
				m = m[:len(m)-1]
			} else {
				inv = inv[:len(inv)-1]
			}
			got := tilePanic(tile, m, length, inv, qRows, cRows)
			var want string
			withLanes(func() { want = tilePanic(tile, m, length, inv, qRows, cRows) })
			if got == "" || got != want {
				t.Fatalf("short buffer: vector path panicked with %q, Go lanes with %q", got, want)
			}
			return
		}
		CosineTile(tile, m, length, inv, qRows, cRows)
		lanes := make([]float64, qn*cn)
		cosineLanes(lanes, cn, m, length, inv, qRows, cRows)
		for i := range tile {
			if !sameBits(tile[i], lanes[i]) {
				t.Fatalf("rows %v x %v len=%d score %d: %g (%#x), Go lanes %g (%#x)", qRows, cRows, length, i,
					tile[i], math.Float64bits(tile[i]), lanes[i], math.Float64bits(lanes[i]))
			}
		}
	})
}

func BenchmarkDotScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := randVec(rng, 8760), randVec(rng, 8760)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dot(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps the optimizer from discarding benchmark results.
var benchSink float64

func BenchmarkDotUnchecked(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := randVec(rng, 8760), randVec(rng, 8760)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = DotUnchecked(x, y)
	}
}

func BenchmarkDot4(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := randVec(rng, 8760)
	c := randVec(rng, 4*8760)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d0, d1, d2, d3 := Dot4(q, c[:8760], c[8760:2*8760], c[2*8760:3*8760], c[3*8760:])
		benchSink = d0 + d1 + d2 + d3
	}
}

// BenchmarkCosineTile scores one of the similarity scan's 8×8 tiles at
// the benchmark's row length, on the path this CPU selects and on the
// Go lanes alone; pairs/s is the figure the scan's throughput follows.
func BenchmarkCosineTile(b *testing.B) {
	const n, length = 8, 8760
	rng := rand.New(rand.NewSource(4))
	data, inv, qRows, cRows := stacked(randVec(rng, n*length), randVec(rng, n*length), n, n, length)
	tile := make([]float64, n*n)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CosineTile(tile, data, length, inv, qRows, cRows)
		}
		b.ReportMetric(float64(b.N*n*n)/b.Elapsed().Seconds(), "pairs/s")
	}
	b.Run("selected", run)
	b.Run("lanes", func(b *testing.B) { withLanes(func() { run(b) }) })
}
