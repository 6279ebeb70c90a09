package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.1, 1.4}, // type-7 interpolation: pos = 0.4
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmptyInput {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q<0: want error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q>1: want error")
	}
	if _, err := Quantiles(nil, 0.5); err != ErrEmptyInput {
		t.Error("Quantiles empty: want error")
	}
	if _, err := Quantiles([]float64{1}, 2); err == nil {
		t.Error("Quantiles out of range: want error")
	}
	if _, err := QuantileSorted(nil, 0.5); err != ErrEmptyInput {
		t.Error("QuantileSorted empty: want error")
	}
	if _, err := QuantileSorted([]float64{1}, 7); err == nil {
		t.Error("QuantileSorted bad q: want error")
	}
}

func TestQuantileSingleElement(t *testing.T) {
	for _, q := range []float64{0, 0.3, 1} {
		got, err := Quantile([]float64{42}, q)
		if err != nil || got != 42 {
			t.Errorf("Quantile single (%g) = %g, %v", q, got, err)
		}
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantilesMatchSingleCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 50
	}
	qs := []float64{0.1, 0.9, 0.5, 0}
	multi, err := Quantiles(xs, qs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, _ := Quantile(xs, q)
		if multi[i] != single {
			t.Errorf("Quantiles[%g] = %g, Quantile = %g", q, multi[i], single)
		}
	}
}

func TestMedian(t *testing.T) {
	m, err := Median([]float64{9, 1, 5})
	if err != nil || m != 5 {
		t.Errorf("Median = %g, %v", m, err)
	}
	m, _ = Median([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Errorf("even Median = %g, want 2.5", m)
	}
}

// Properties: monotone in q, bounded by min/max, and exact on order
// statistics for evenly spaced q.
func TestQuantilePropertiesQuick(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
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
		frac := func(x float64) float64 {
			x = math.Abs(x)
			return x - math.Floor(x)
		}
		a, b := frac(q1), frac(q2)
		if a > b {
			a, b = b, a
		}
		va, err1 := Quantile(clean, a)
		vb, err2 := Quantile(clean, b)
		if err1 != nil || err2 != nil {
			return false
		}
		min, max, _ := MinMax(clean)
		return va <= vb+1e-9 && va >= min-1e-9 && vb <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileSortedAgreesWithQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 57)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for q := 0.0; q <= 1.0; q += 0.05 {
		a, _ := Quantile(xs, q)
		b, _ := QuantileSorted(sorted, q)
		if a != b {
			t.Fatalf("q=%g: %g vs %g", q, a, b)
		}
	}
}

// selectDraw is one input to the selection kernel: n values from a
// small alphabet (so ranks land inside runs of duplicates), with NaNs and
// both infinities mixed in when special is set. No negative zero: -0 and
// +0 compare equal, so a sort may leave them in either order and no
// kernel can promise the bit the sort happened to pick.
func selectDraw(rng *rand.Rand, n int, special bool) []float64 {
	xs := make([]float64, n)
	levels := 1 + rng.Intn(2*n+1)
	for i := range xs {
		xs[i] = float64(rng.Intn(levels)) / 1000
		if special {
			switch rng.Intn(12) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1)
			case 2:
				xs[i] = math.Inf(-1)
			}
		}
	}
	return xs
}

// SelectQuantilePair must return the bits that a full sort followed by
// QuantileSorted returns, for every length around the small-slice
// cutoff, every kind of value, and levels at and between the ends.
func TestSelectQuantilePairMatchesSortBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{0, 0.1, 0.25, 0.5, 0.9, 0.999, 1}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(3*selectSmall)
		if trial%10 == 0 {
			n = 1 + rng.Intn(2000)
		}
		xs := selectDraw(rng, n, trial%3 == 0)
		qLo, qHi := levels[rng.Intn(len(levels))], levels[rng.Intn(len(levels))]
		if trial%4 == 0 {
			qLo, qHi = rng.Float64(), rng.Float64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		wantLo, wantHi := quantileSorted(sorted, qLo), quantileSorted(sorted, qHi)
		in := append([]float64(nil), xs...)
		gotLo, gotHi := SelectQuantilePair(xs, qLo, qHi)
		if math.Float64bits(gotLo) != math.Float64bits(wantLo) || math.Float64bits(gotHi) != math.Float64bits(wantHi) {
			t.Fatalf("trial %d: n=%d q=(%g, %g): got (%v, %v), want (%v, %v)\ninput %v",
				trial, n, qLo, qHi, gotLo, gotHi, wantLo, wantHi, in)
		}
		// The kernel only permutes.
		sort.Float64s(xs)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(sorted[i]) {
				t.Fatalf("trial %d: kernel changed the multiset at sorted rank %d", trial, i)
			}
		}
	}
}

// Inputs that starve a median-of-three quickselect (sorted, reversed,
// organ pipe, constant) must still come out right; the depth bound turns
// the bad cases into a sort.
func TestSelectQuantilePairHostileOrders(t *testing.T) {
	const n = 5000
	shapes := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"organ pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"constant":   func(int) float64 { return 7 },
		"sawtooth":   func(i int) float64 { return float64(i % 3) },
	}
	for name, at := range shapes {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = at(i)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		lo, hi := SelectQuantilePair(xs, 0.1, 0.9)
		if lo != quantileSorted(sorted, 0.1) || hi != quantileSorted(sorted, 0.9) {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", name, lo, hi,
				quantileSorted(sorted, 0.1), quantileSorted(sorted, 0.9))
		}
	}
	// The fallback itself, reached directly.
	xs := selectDraw(rand.New(rand.NewSource(5)), 300, false)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	selectRanks(xs, 0, []int{30, 31, 269}, 0)
	for _, r := range []int{30, 31, 269} {
		if xs[r] != sorted[r] {
			t.Errorf("depth 0: rank %d holds %v, want %v", r, xs[r], sorted[r])
		}
	}
}

func TestSelectQuantilePairDoesNotAllocate(t *testing.T) {
	src := selectDraw(rand.New(rand.NewSource(3)), 400, true)
	xs := make([]float64, len(src))
	if n := testing.AllocsPerRun(50, func() {
		copy(xs, src)
		SelectQuantilePair(xs, 0.1, 0.9)
	}); n != 0 {
		t.Errorf("SelectQuantilePair allocates %v times per call, want 0", n)
	}
}
