package colcodec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// withLanes runs f with the vector kernel switched off, so that
// unpackDeltas takes the Go lanes alone.
func withLanes(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}

// unpackBothPaths runs unpackDeltas over body on the path this CPU
// selects and on the Go lanes alone, and fails t unless the two agree:
// the same error-or-not, the same last integer and the same float bits.
func unpackBothPaths(t *testing.T, what string, body []byte, n int, w uint, cur int64, p float64) {
	t.Helper()
	got, want := make([]float64, n), make([]float64, n)
	gotCur, err := unpackDeltas(body, got, w, cur, p)
	var wantCur int64
	var wantErr error
	withLanes(func() { wantCur, wantErr = unpackDeltas(body, want, w, cur, p) })
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: vector err %v, Go lanes err %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if gotCur != wantCur {
		t.Fatalf("%s: vector ends at %d, Go lanes at %d", what, gotCur, wantCur)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d bits %016x (%v), Go lanes %016x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestUnpackKernelMatchesLanes holds unpackDeltas' vector path to its Go
// lanes bit for bit: every width 1 to 56 and the bitReader's 57 to 64,
// every batch length 1 to 128, every scale, bodies that end with the
// batch (so the last deltas have fewer than eight readable bytes) and
// bodies padded past it, and running integers that start at zero, at
// random, on either side of exactRun's limit next to ±2^51 and next to
// ±2^63, where Go's int64 addition wraps. The deltas are drawn at the
// width's extremes half of the time, so that a run from near a limit
// crosses it.
func TestUnpackKernelMatchesLanes(t *testing.T) {
	if !useAVX2 {
		t.Log("no vector path on this CPU: the lanes are checked against themselves")
	}
	rng := rand.New(rand.NewSource(45))
	zz := make([]uint64, deltaBatch)
	for w := uint(1); w <= 64; w++ {
		top := uint64(math.MaxUint64)
		if w < 64 {
			top = 1<<w - 1
		}
		for n := 1; n <= deltaBatch; n++ {
			up := rng.Intn(2) == 0 // push the run up or down
			for i := range zz[:n] {
				switch r := rng.Intn(4); {
				case r == 0 && up:
					zz[i] = top - 1 // the largest delta
				case r == 0:
					zz[i] = top // the smallest
				default:
					zz[i] = rng.Uint64() & top
				}
			}
			body := appendPacked(nil, zz[:n], w)
			body = append(body, make([]byte, 8)...)
			p := pow10[(int(w)+n)%(maxFixedScale+1)]
			var k int64
			if w <= 56 {
				k = int64(n&^3) << (w - 1)
			}
			lim := int64(1)<<51 - k
			starts := []int64{0, rng.Int63n(1<<40) - 1<<39,
				lim - 1, lim, -lim + 1, -lim, 1<<51 - 1, -1 << 51, 1<<51 + 3,
				math.MaxInt64 - rng.Int63n(1<<20), math.MinInt64 + rng.Int63n(1<<20)}
			packed := len(body) - 8
			for _, cur := range starts {
				for _, pad := range []int{0, 3, 8} {
					unpackBothPaths(t, "unpack", body[:packed+pad], n, w, cur, p)
				}
			}
		}
	}
}

// whPayload encodes a year of hourly readings in kWh rounded to the
// watt-hour, the resolution the benchmark's meters report: a
// fixed-point payload at scale 3.
func whPayload(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(45))
	vals := make([]float64, 8760)
	for i := range vals {
		vals[i] = math.Round(math.Exp(rng.NormFloat64()*0.6-0.5)*1000) / 1000
	}
	var enc Encoder
	payload := enc.AppendValues(nil, vals)
	if _, n := binary.Uvarint(payload); payload[n] != modeFixed {
		tb.Fatalf("payload mode %d, want fixed", payload[n])
	}
	return payload
}

// BenchmarkDecodeFixed decodes a year of watt-hour readings, on the path
// this CPU selects and on the Go lanes alone.
func BenchmarkDecodeFixed(b *testing.B) {
	payload := whPayload(b)
	dst := make([]float64, 8760)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeValues(payload, dst); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/reading")
	}
	b.Run("selected", run)
	b.Run("lanes", func(b *testing.B) { withLanes(func() { run(b) }) })
}
