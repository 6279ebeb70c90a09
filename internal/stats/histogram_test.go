package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHistogramBasic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h, err := NewHistogram(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != 0 || h.Max != 10 {
		t.Fatalf("range = [%g, %g]", h.Min, h.Max)
	}
	if got := h.Total(); got != int64(len(xs)) {
		t.Errorf("Total = %d, want %d", got, len(xs))
	}
	// Values 0..9 land in buckets 0..9; 10 == Max lands in the last bucket.
	want := []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, h.Counts[i], c, h.Counts)
			break
		}
	}
}

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 10); err != ErrEmptyInput {
		t.Errorf("empty input err = %v", err)
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero buckets: want error")
	}
	if _, err := NewHistogramRange([]float64{1}, 10, 5, 1); err == nil {
		t.Error("inverted range: want error")
	}
}

func TestHistogramConstantInput(t *testing.T) {
	h, err := NewHistogram([]float64{3, 3, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Errorf("constant input: counts = %v", h.Counts)
	}
	if h.BucketWidth() != 0 {
		t.Errorf("width = %g, want 0", h.BucketWidth())
	}
}

func TestHistogramRangeClamping(t *testing.T) {
	h, err := NewHistogramRange([]float64{-5, 0.5, 99}, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("clamping: counts = %v", h.Counts)
	}
}

func TestHistogramEdges(t *testing.T) {
	h, _ := NewHistogramRange(nil, 4, 0, 8)
	edges := h.Edges()
	want := []float64{0, 2, 4, 6, 8}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d = %g, want %g", i, edges[i], want[i])
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, _ := NewHistogramRange([]float64{1, 2}, 5, 0, 10)
	b, _ := NewHistogramRange([]float64{3, 9}, 5, 0, 10)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 4 {
		t.Errorf("merged total = %d", a.Total())
	}
	c, _ := NewHistogramRange(nil, 4, 0, 10)
	if err := a.Merge(c); err == nil {
		t.Error("shape mismatch merge: want error")
	}
}

func TestHistogramModeEntropy(t *testing.T) {
	h, _ := NewHistogramRange([]float64{1, 1, 1, 9}, 10, 0, 10)
	b, c := h.Mode()
	if b != 1 || c != 3 {
		t.Errorf("Mode = (%d, %d)", b, c)
	}
	if e := h.Entropy(); e <= 0 {
		t.Errorf("Entropy = %g, want > 0", e)
	}
	empty, _ := NewHistogramRange(nil, 10, 0, 10)
	if e := empty.Entropy(); e != 0 {
		t.Errorf("empty entropy = %g", e)
	}
	uniform, _ := NewHistogramRange([]float64{0.5, 1.5, 2.5, 3.5}, 4, 0, 4)
	if e := uniform.Entropy(); !almostEqual(e, math.Log(4), 1e-12) {
		t.Errorf("uniform entropy = %g, want ln 4", e)
	}
}

// Property: every sample is counted exactly once, regardless of the data.
func TestHistogramTotalConservationQuick(t *testing.T) {
	f := func(vals []float64, nb uint8) bool {
		buckets := int(nb%20) + 1
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		h, err := NewHistogram(clean, buckets)
		if err != nil {
			return false
		}
		return h.Total() == int64(len(clean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: bucket counts are permutation-invariant.
func TestHistogramPermutationInvariantQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		h1, err := NewHistogram(xs, 10)
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		h2, _ := NewHistogram(xs, 10)
		for i := range h1.Counts {
			if h1.Counts[i] != h2.Counts[i] {
				t.Fatalf("trial %d: permutation changed histogram: %v vs %v", trial, h1.Counts, h2.Counts)
			}
		}
	}
}

// TestAddAllMatchesAddLoop holds the one bucket-counting loop to Add,
// value by value: ranges that are ordinary, empty (Min == Max), inverted,
// overflowing (Max-Min = +Inf), infinite or NaN; values inside, outside
// and on the edges of the range, NaN and ±Inf among them.
func TestAddAllMatchesAddLoop(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	draw := func(rng *rand.Rand) float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return rng.NormFloat64() * 1e300
		default:
			return rng.NormFloat64() * 10
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo, hi := draw(rng), draw(rng)
		if rng.Intn(4) == 0 {
			hi = lo
		}
		buckets := 1 + rng.Intn(12)
		xs := make([]float64, rng.Intn(300))
		for i := range xs {
			switch rng.Intn(6) {
			case 0:
				xs[i] = lo
			case 1:
				xs[i] = hi
			default:
				xs[i] = draw(rng)
			}
		}
		got := &Histogram{Min: lo, Max: hi, Counts: make([]int64, buckets)}
		want := &Histogram{Min: lo, Max: hi, Counts: make([]int64, buckets)}
		got.AddAll(xs)
		for _, x := range xs {
			want.Add(x)
		}
		for b := range want.Counts {
			if got.Counts[b] != want.Counts[b] {
				t.Logf("range [%g, %g], %d buckets: AddAll %v, Add loop %v", lo, hi, buckets, got.Counts, want.Counts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAddAllDoesNotAllocate: bucketing a year of hourly readings into an
// existing histogram allocates nothing.
func TestAddAllDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 8760)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	h, err := NewHistogram(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { h.AddAll(xs) }); n != 0 {
		t.Errorf("AddAll over %d values allocates %v times per run, want 0", len(xs), n)
	}
}
