package par

import (
	"math"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// fuzzValue maps one fuzz byte to a reading or a temperature: mostly
// small multiples of 1/16, so that equal values, flat hours and singular
// systems are one mutation away, and a few bytes for what arithmetic
// does not survive.
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
		return 1e-300
	case 249:
		return math.SmallestNonzeroFloat64
	case 248:
		return -math.MaxFloat64
	}
	return float64(b)/16 - 2
}

// FuzzPlannedPARMatchesNaive turns bytes into an order (the first
// byte), and readings and temperatures of a few days (the rest, taken
// alternately and repeated when short), and requires the planned kernel
// to fit them, and to equal the textbook kernel bit for bit, on the
// path this CPU selects and on the Go lanes alone.
func FuzzPlannedPARMatchesNaive(f *testing.F) {
	f.Add([]byte{2, 16, 40})                           // flat consumer, constant temperature
	f.Add([]byte{0, 1, 2, 3, 5, 8, 13, 21, 34, 55})    // order 1
	f.Add([]byte{5, 90, 255, 17, 3, 254, 60, 61, 252}) // order 6 with a NaN and an Inf
	f.Add([]byte{2, 33, 40, 35, 40, 39, 40, 31, 253, 47, 40, 251, 40, 250, 40})
	ordinary := []byte{2}
	for i := 0; i < 12*2*hoursPerDay; i++ {
		ordinary = append(ordinary, byte(37*i+i*i/7))
	}
	f.Add(ordinary)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		order := 1 + int(data[0])%6
		body := data[1:]
		days := 2*order + 2 + min(len(body)/(2*hoursPerDay), 10)
		readings := make([]float64, days*hoursPerDay)
		temps := make([]float64, len(readings))
		for i := range readings {
			readings[i] = fuzzValue(body[(2*i)%len(body)])
			temps[i] = fuzzValue(body[(2*i+1)%len(body)])
		}
		s := &timeseries.Series{ID: 1, Readings: readings}
		temp := &timeseries.Temperature{Values: temps}
		want, err := computeNaive(s, temp, order)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		got, err := ComputeOrder(s, temp, order)
		if err != nil {
			t.Fatalf("planned: %v", err)
		}
		sameResult(t, "planned against naive", got, want)
		withLanes(func() { got, err = ComputeOrder(s, temp, order) })
		if err != nil {
			t.Fatalf("planned, Go lanes: %v", err)
		}
		sameResult(t, "planned on the Go lanes against naive", got, want)
	})
}
