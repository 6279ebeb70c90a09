package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// whReadings returns n hourly readings in kWh rounded to the watt-hour,
// the resolution the benchmark's meters report.
func whReadings(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Round(math.Exp(rng.NormFloat64()*0.6-0.5)*1000) / 1000
	}
	return xs
}

// addLoop counts xs into a fresh histogram over [lo, hi] through Add,
// the definition AddAll is held to.
func addLoop(lo, hi float64, buckets int, xs []float64) []int64 {
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int64, buckets)}
	for _, x := range xs {
		h.Add(x)
	}
	return h.Counts
}

// addAllBothPaths counts xs through AddAll on the path this CPU selects
// and again on the Go lanes alone.
func addAllBothPaths(lo, hi float64, buckets int, xs []float64) (selected, lanes []int64) {
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int64, buckets)}
	h.AddAll(xs)
	g := &Histogram{Min: lo, Max: hi, Counts: make([]int64, buckets)}
	withLanes(func() { g.AddAll(xs) })
	return h.Counts, g.Counts
}

// rangeValues is what a histogram over [lo, hi] must bucket without
// doubt: NaN, ±Inf, both zeros, the smallest denormals, the range's ends
// and one ulp either side of each, every bucket edge and a few points
// drawn between the ends.
func rangeValues(rng *rand.Rand, lo, hi float64, buckets int) []float64 {
	vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072009e-308,
		lo, hi, math.Nextafter(lo, math.Inf(1)), math.Nextafter(hi, math.Inf(-1)),
		math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))}
	w := (hi - lo) / float64(buckets)
	for b := 1; b < buckets; b++ {
		e := lo + float64(b)*w
		vs = append(vs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	for i := 0; i < 8; i++ {
		vs = append(vs, lo+rng.Float64()*(hi-lo))
	}
	return vs
}

// TestAddAllKernelMatchesLanes holds AddAll's vector path to its Go lanes
// and both to the Add loop, count for count: ordinary ranges, a range
// one ulp wide, denormal ranges, ranges that overflow (Max-Min = +Inf)
// or are infinite at one or both ends, NaN ends and empty ranges; 1 to
// 16 buckets, and 64 and 65 either side of the kernel's limit; every
// length 0 to 9, so every split between the four-reading kernel and
// the lanes, and 37.
func TestAddAllKernelMatchesLanes(t *testing.T) {
	if !useAVX2 {
		t.Log("no vector path on this CPU: the lanes are checked against the Add loop alone")
	}
	inf := math.Inf(1)
	ranges := [][2]float64{
		{0, 10}, {-5, 5}, {0.001, 4.2}, {1, math.Nextafter(1, 2)}, {5e-324, 4.4e-323},
		{0, 5e-324}, {-1e300, 1e300}, {-math.MaxFloat64, math.MaxFloat64},
		{-inf, inf}, {-inf, 3}, {3, inf}, {math.NaN(), 1}, {1, math.NaN()}, {2, 2}, {3, -3},
	}
	bucketCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64, 65}
	rng := rand.New(rand.NewSource(45))
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		for _, buckets := range bucketCounts {
			pool := rangeValues(rng, lo, hi, buckets)
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 37} {
				for trial := 0; trial < 24; trial++ {
					xs := make([]float64, n)
					for i := range xs {
						xs[i] = pool[rng.Intn(len(pool))]
					}
					got, lanes := addAllBothPaths(lo, hi, buckets, xs)
					want := addLoop(lo, hi, buckets, xs)
					if !slices.Equal(got, lanes) || !slices.Equal(lanes, want) {
						t.Fatalf("range [%g, %g], %d buckets, xs %v: vector %v, Go lanes %v, Add loop %v",
							lo, hi, buckets, xs, got, lanes, want)
					}
				}
			}
		}
	}
}

// FuzzAddAllMatchesAddLoop counts fuzzed readings into a fuzzed range
// on both of AddAll's paths and through the Add loop. The first byte
// picks the bucket count (1 to 70, across the kernel's limit), the next
// sixteen are the range's ends as raw float64 bits (NaN payloads,
// infinities and denormals included), and each byte after that is one
// reading: a point of the range from its low end to its high end, or a
// value arithmetic does not survive.
func FuzzAddAllMatchesAddLoop(f *testing.F) {
	seed := func(buckets byte, lo, hi float64, codes ...byte) []byte {
		b := []byte{buckets}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lo))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(hi))
		return append(b, codes...)
	}
	f.Add(seed(9, 0, 10, 0, 22, 44, 66, 88, 110, 132, 154, 176, 199, 250, 251, 252))
	f.Add(seed(0, -5, 5, 1, 2, 3, 255, 254, 253, 100, 101))
	f.Add(seed(15, math.Inf(-1), math.Inf(1), 0, 199, 255, 10, 20, 30, 40, 50))
	f.Add(seed(3, math.Inf(-1), 2, 0, 100, 199, 200, 201, 202, 203))
	f.Add(seed(63, -math.MaxFloat64, math.MaxFloat64, 0, 1, 198, 199, 204, 205, 206, 207))
	f.Add(seed(69, 0.001, 4.2, 5, 15, 25, 35, 45, 55, 65, 75, 85, 95, 105, 115))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 17 {
			return
		}
		buckets := 1 + int(data[0])%70
		lo := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))
		codes := data[17:]
		if len(codes) > 256 {
			codes = codes[:256]
		}
		xs := make([]float64, len(codes))
		for i, c := range codes {
			switch {
			case c < 200:
				xs[i] = lo + float64(c)/199*(hi-lo)
			case c == 200:
				xs[i] = lo
			case c == 201:
				xs[i] = hi
			case c == 202:
				xs[i] = math.Nextafter(lo, math.Inf(1))
			case c == 203:
				xs[i] = math.Nextafter(hi, math.Inf(-1))
			case c == 204:
				xs[i] = 5e-324
			case c == 205:
				xs[i] = math.Copysign(0, -1)
			case c == 253:
				xs[i] = math.Inf(-1)
			case c == 254:
				xs[i] = math.Inf(1)
			case c == 255:
				xs[i] = math.NaN()
			default:
				xs[i] = float64(c) - 230
			}
		}
		got, lanes := addAllBothPaths(lo, hi, buckets, xs)
		want := addLoop(lo, hi, buckets, xs)
		if !slices.Equal(got, lanes) || !slices.Equal(lanes, want) {
			t.Fatalf("range [%g, %g], %d buckets, xs %v: vector %v, Go lanes %v, Add loop %v",
				lo, hi, buckets, xs, got, lanes, want)
		}
	})
}

// BenchmarkAddAll counts a year of watt-hour-rounded hourly readings
// into ten buckets over their own range, as the histogram task does, on
// the path this CPU selects and on the Go lanes alone.
func BenchmarkAddAll(b *testing.B) {
	xs := whReadings(rand.New(rand.NewSource(45)), 8760)
	lo, hi, _ := MinMax(xs)
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int64, 10)}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.AddAll(xs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/reading")
	}
	b.Run("selected", run)
	b.Run("lanes", func(b *testing.B) { withLanes(func() { run(b) }) })
}
