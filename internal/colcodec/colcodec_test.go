package colcodec

import (
	"math"
	"math/rand"
	"testing"
)

// roundTripValues encodes vals, decodes the payload, and requires
// bit-identical output plus exact payload-length accounting.
func roundTripValues(t *testing.T, vals []float64) []byte {
	t.Helper()
	var enc Encoder
	payload := enc.AppendValues(nil, vals)
	got, used, err := DecodeValues(payload, nil)
	if err != nil {
		t.Fatalf("DecodeValues: %v", err)
	}
	if used != len(payload) {
		t.Fatalf("consumed %d of %d payload bytes", used, len(payload))
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: got bits %016x want %016x (%v vs %v)",
				i, math.Float64bits(got[i]), math.Float64bits(vals[i]), got[i], vals[i])
		}
	}
	return payload
}

func TestValuesRoundTripAdversarial(t *testing.T) {
	nan := math.NaN()
	payloadNaN := math.Float64frombits(0x7ff8deadbeef0001) // non-canonical NaN payload
	cases := map[string][]float64{
		"empty":          {},
		"single":         {42.125},
		"single-nan":     {nan},
		"constant":       {3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 3.5},
		"constant-zero":  make([]float64, 300),
		"nan-inf-mix":    {1.5, nan, math.Inf(1), math.Inf(-1), 0, payloadNaN, -2.25},
		"all-nan":        {nan, nan, nan},
		"negative-zero":  {0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		"denormals":      {5e-324, 1e-310, -5e-324, math.SmallestNonzeroFloat64, 2.2250738585072009e-308},
		"extremes":       {math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		"decimal-wh":     {1.234, 0.001, 17.5, 0, 123.456, 0.999},
		"large-fixed":    {100000.125, 99999.875, 100001},
		"single-decimal": {0.7},
	}
	for name, vals := range cases {
		payload := roundTripValues(t, vals)
		t.Logf("%s: %d values -> %d bytes", name, len(vals), len(payload))
	}
}

func TestValuesRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(3000)
		vals := make([]float64, n)
		mode := trial % 4
		for i := range vals {
			switch mode {
			case 0: // quantized Wh readings: the fixed-point sweet spot
				vals[i] = math.Round(math.Abs(rng.NormFloat64())*1000) / 1000
			case 1: // raw Gaussians: forces XOR mode
				vals[i] = rng.NormFloat64()
			case 2: // mixed magnitudes, still decimal
				vals[i] = math.Round(rng.Float64()*math.Pow(10, float64(rng.Intn(6)))*100) / 100
			case 3: // hostile bit patterns
				vals[i] = math.Float64frombits(rng.Uint64())
			}
		}
		roundTripValues(t, vals)
	}
}

func TestCompressionRatioOnQuantizedGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = math.Round((1+0.1*rng.NormFloat64())*1000) / 1000
	}
	payload := roundTripValues(t, vals)
	raw := 8 * len(vals)
	if ratio := float64(raw) / float64(len(payload)); ratio < 4 {
		t.Fatalf("compression ratio %.2f on quantized Gaussian block, want >= 4 (payload %d bytes)", ratio, len(payload))
	}
}

func TestSummarizeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	s := Summarize(vals)
	if s.Count != len(vals) || s.NaNs != 0 {
		t.Fatalf("Count=%d NaNs=%d", s.Count, s.NaNs)
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.Float64bits(s.Min) != math.Float64bits(min) || math.Float64bits(s.Max) != math.Float64bits(max) {
		t.Fatalf("Min/Max %v/%v want %v/%v", s.Min, s.Max, min, max)
	}

	nan := math.NaN()
	withNaN := Summarize([]float64{nan, 2, nan, -1})
	if withNaN.NaNs != 2 || withNaN.Min != -1 || withNaN.Max != 2 {
		t.Fatalf("NaN summary: %+v", withNaN)
	}
	allNaN := Summarize([]float64{nan, nan})
	if !math.IsNaN(allNaN.Min) || !math.IsNaN(allNaN.Max) || allNaN.NaNs != 2 {
		t.Fatalf("all-NaN summary: %+v", allNaN)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || !math.IsNaN(empty.Min) {
		t.Fatalf("empty summary: %+v", empty)
	}
}

// TestDecodeValuesZeroAlloc pins the block decode path at zero
// allocations when the caller supplies a sufficient buffer — the pager
// depends on this to keep Next() allocation-flat.
func TestDecodeValuesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fixed := make([]float64, 1024)
	xor := make([]float64, 1024)
	for i := range fixed {
		fixed[i] = math.Round(math.Abs(rng.NormFloat64())*1000) / 1000
		xor[i] = rng.NormFloat64()
	}
	var enc Encoder
	fixedPayload := enc.AppendValues(nil, fixed)
	xorPayload := enc.AppendValues(nil, xor)
	dst := make([]float64, 1024)
	for name, payload := range map[string][]byte{"fixed": fixedPayload, "xor": xorPayload} {
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			dst, _, err = DecodeValues(payload, dst)
			if err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s decode: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

func TestDecodeValuesTruncated(t *testing.T) {
	vals := []float64{1.5, 2.25, 3.125, 4, 5, 6, 7, 8}
	var enc Encoder
	payload := enc.AppendValues(nil, vals)
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := DecodeValues(payload[:cut], nil); err == nil {
			// A prefix that still decodes fully must be impossible:
			// the count header promises 8 values.
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(payload))
		}
	}
	if _, _, err := DecodeValues(nil, nil); err == nil {
		t.Fatal("empty payload decoded without error")
	}
}

// TestDecodeExactAccountsForEveryByte: DecodeExact takes a payload of
// exactly the values it was asked for and nothing after them, in every
// mode.
func TestDecodeExactAccountsForEveryByte(t *testing.T) {
	var enc Encoder
	for name, vals := range map[string][]float64{
		"fixed": {1.5, 2.25, 3.125, 4},
		"xor":   {0.1, math.Pi, -math.E, math.NaN()},
		"rle":   append(make([]float64, 40), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
		"dict":  {1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2},
		"empty": {},
	} {
		payload := enc.AppendValues(nil, vals)
		dst := make([]float64, len(vals))
		if err := DecodeExact(payload, dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := DecodeExact(append(payload, 0), dst); err != ErrCorrupt {
			t.Fatalf("%s: a trailing byte: %v, want ErrCorrupt", name, err)
		}
		if err := DecodeExact(payload, make([]float64, len(vals)+1)); err != ErrCorrupt {
			t.Fatalf("%s: one row too many: %v, want ErrCorrupt", name, err)
		}
	}
}
