package par

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// goldenPARHash is the FNV-1a hash of the result bits goldenPAR
// produces. It was taken on the hour-at-a-time kernel, before the
// four-hour groups existed: no path may change a bit. It holds on amd64
// (both paths) and on 386 (the Go lanes).
const goldenPARHash = 0xdf9db33b0588d19c

// goldenPAR hashes every field of the results of seeded fits: orders 1,
// 3 and 6 over ordinary, missing, infinite, flat and constant-
// temperature draws (drawCase kinds 0, 7, 8, 1 and 4). Any NaN hashes
// as one pattern: which payload an operation on two NaNs hands on is
// the processor's choice.
func goldenPAR(t *testing.T) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	putFloat := func(v float64) {
		if math.IsNaN(v) {
			put(0x7ff8000000000001)
			return
		}
		put(math.Float64bits(v))
	}
	var sc Scratch
	for _, order := range []int{1, 3, 6} {
		for _, kind := range []int{0, 7, 8, 1, 4} {
			for _, days := range []int{2*order + 2, 45, 365} {
				readings, temps := drawCase(rng, kind, days)
				s := &timeseries.Series{ID: timeseries.ID(100*order + kind), Readings: readings}
				r, err := NewPlan(&timeseries.Temperature{Values: temps}, order).Compute(s, &sc)
				if err != nil {
					t.Fatalf("order %d kind %d days %d: %v", order, kind, days, err)
				}
				put(uint64(r.ID))
				for hour := range r.Hours {
					m := &r.Hours[hour]
					putFloat(r.Profile[hour])
					for _, a := range m.ARCoef {
						putFloat(a)
					}
					putFloat(m.TempCoef)
					putFloat(m.Intercept)
					putFloat(m.R2)
					if m.Fallback {
						put(1)
					} else {
						put(0)
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestPARGolden pins the bits of every result field against a constant,
// on the path this CPU selects and on the Go lanes alone.
func TestPARGolden(t *testing.T) {
	if got := goldenPAR(t); got != goldenPARHash {
		t.Errorf("Plan.Compute (vector path %v): hash %#x, want %#x", useAVX, got, uint64(goldenPARHash))
	}
	withLanes(func() {
		if got := goldenPAR(t); got != goldenPARHash {
			t.Errorf("Plan.Compute (Go lanes): hash %#x, want %#x", got, uint64(goldenPARHash))
		}
	})
}
