package colcodec

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsFromBytes reinterprets a fuzz byte string as a float64 slice
// (little-endian, trailing partial word dropped) so the fuzzer mutates
// raw bit patterns — NaN payloads, denormals, infinities included.
func floatsFromBytes(raw []byte) []float64 {
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return vals
}

func floatsToBytes(vals []float64) []byte {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return raw
}

// fuzzSeeds mirrors the adversarial cases of the deterministic tests
// so the fuzzer starts from every known-hostile corner: NaN payloads,
// signed zeros, denormals, extremes, repeat-mode and fixed-mode bait.
func fuzzSeeds() [][]float64 {
	nan := math.NaN()
	payloadNaN := math.Float64frombits(0x7ff8deadbeef0001)
	constant := make([]float64, 300)
	for i := range constant {
		constant[i] = 1.2345678901234567
	}
	alternating := make([]float64, 130)
	for i := range alternating {
		alternating[i] = float64(i % 2)
	}
	return [][]float64{
		{},
		{42.125},
		{nan},
		{1.5, nan, math.Inf(1), math.Inf(-1), 0, payloadNaN, -2.25},
		{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{5e-324, 1e-310, -5e-324, math.SmallestNonzeroFloat64, 2.2250738585072009e-308},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		{1.234, 0.001, 17.5, 0, 123.456, 0.999},
		constant,
		alternating,
	}
}

// FuzzValuesRoundTrip feeds arbitrary bit patterns through every
// encode mode the heuristic picks and requires bit-identical decode
// with exact payload accounting — the codec's core contract — on the
// decoder's vector path and on its Go lanes.
func FuzzValuesRoundTrip(f *testing.F) {
	for _, vals := range fuzzSeeds() {
		f.Add(floatsToBytes(vals))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := floatsFromBytes(raw)
		if len(vals) > 1<<16 {
			t.Skip()
		}
		var enc Encoder
		payload := enc.AppendValues(nil, vals)
		check := func(path string) {
			got, used, err := DecodeValues(payload, nil)
			if err != nil {
				t.Fatalf("DecodeValues (%s): %v", path, err)
			}
			if used != len(payload) {
				t.Fatalf("consumed %d of %d payload bytes (%s)", used, len(payload), path)
			}
			if len(got) != len(vals) {
				t.Fatalf("decoded %d values, want %d (%s)", len(got), len(vals), path)
			}
			for i := range vals {
				if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("value %d (%s): bits %016x want %016x",
						i, path, math.Float64bits(got[i]), math.Float64bits(vals[i]))
				}
			}
		}
		check("vector")
		withLanes(func() { check("Go lanes") })
	})
}

// FuzzDecodeValues throws arbitrary byte strings at the decoder: it
// must reject or decode within bounds, never panic or over-consume.
// Valid payloads seeded from the round-trip corpus keep the fuzzer
// exploring deep decode paths rather than bouncing off the header.
func FuzzDecodeValues(f *testing.F) {
	var enc Encoder
	for _, vals := range fuzzSeeds() {
		payload := enc.AppendValues(nil, vals)
		f.Add(payload)
		if len(payload) > 1 {
			f.Add(payload[:len(payload)/2])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// A hostile header may legally promise a huge count (RLE makes
		// millions of rows from a few bytes); cap the allocation, not
		// the logic.
		if cnt, n := binary.Uvarint(payload); n > 0 && cnt > 1<<20 {
			t.Skip()
		}
		// A fixed-mode body also goes to the byte-at-a-time oracle, and
		// is decoded on the vector path and on the Go lanes.
		if cnt, n := binary.Uvarint(payload); n > 0 && n < len(payload) && payload[n] == modeFixed &&
			cnt > 0 && cnt <= uint64(len(agreeBuf[0])) {
			_, _ = agree(t, "fuzz", payload[n+1:], int(cnt))
		}
		vals, used, err := DecodeValues(payload, nil)
		if err != nil {
			return
		}
		if used > len(payload) {
			t.Fatalf("consumed %d of %d payload bytes", used, len(payload))
		}
		// What decoded must re-encode and decode back bit-identically:
		// the decoder may accept non-canonical payloads, but never ones
		// that alias to different values.
		var re Encoder
		payload2 := re.AppendValues(nil, vals)
		got, _, err := DecodeValues(payload2, nil)
		if err != nil {
			t.Fatalf("re-encode of decoded payload failed: %v", err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("re-encode value %d: bits %016x want %016x",
					i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	})
}
