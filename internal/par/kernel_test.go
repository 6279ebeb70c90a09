package par

import (
	"math"
	"math/rand"
	"testing"
)

// TestKernelsMatchLanes holds each vector kernel to its Go lanes bit for
// bit on drawn inputs: ordinary values beside NaN, ±Inf, -0 and huge
// ones, orders 1 to 6, every group of hours, and rSquared lanes with and
// without the temperature term. A lane without it must add nothing even
// where the temperature is infinite; the drawn fits never retry an hour
// whose temperatures are not finite, so only this test sees the mask.
func TestKernelsMatchLanes(t *testing.T) {
	if !useAVX {
		t.Skip("no vector path on this CPU")
	}
	rng := rand.New(rand.NewSource(43))
	value := func() float64 {
		switch rng.Intn(16) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return 1e300
		}
		return 10 * rng.NormFloat64()
	}
	fill := func(v []float64) []float64 {
		for i := range v {
			v[i] = value()
		}
		return v
	}
	same := func(label string, trial int, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("trial %d %s[%d]: vector %v, Go lanes %v", trial, label, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		order := 1 + trial%6
		days := order + 1 + rng.Intn(40)
		n := days - order
		readings := fill(make([]float64, days*hoursPerDay))
		temps := fill(make([]float64, days*hoursPerDay))
		h0 := lanes * rng.Intn(hoursPerDay/lanes)
		c, tt := readings[h0:], temps[h0:]
		y, ty := c[order*hoursPerDay:], tt[order*hoursPerDay:]
		lag := func() []float64 { return lagSeries(c, order, rng.Intn(order)) }
		x, a, b, k := lag(), lag(), lag(), lag()
		coef := fill(make([]float64, lanes*order))
		var m laneModel
		for l := range lanes {
			m.k[l], m.b[l], m.ybar[l] = value(), value(), value()
			if rng.Intn(2) == 0 {
				m.mask[l] = ^uint64(0)
			}
		}
		var slope [hoursPerDay]float64
		fill(slope[:])

		var ys, ysLanes [4 * lanes]float64
		var sums, sumsLanes [6 * lanes]float64
		var ss, ssLanes [2 * lanes]float64
		var mean, meanLanes [hoursPerDay]float64
		ySums(&ys, c, tt, order, days)
		lagSums(&sums, x, y, ty, a, b, k, n)
		rSquared(&ss, c, y, ty, coef, &m, order, n)
		profile(&mean, readings, temps, &slope, days)
		withLanes(func() {
			ySums(&ysLanes, c, tt, order, days)
			lagSums(&sumsLanes, x, y, ty, a, b, k, n)
			rSquared(&ssLanes, c, y, ty, coef, &m, order, n)
			profile(&meanLanes, readings, temps, &slope, days)
		})
		same("ySums", trial, ys[:], ysLanes[:])
		same("lagSums", trial, sums[:], sumsLanes[:])
		same("rSquared", trial, ss[:], ssLanes[:])
		same("profile", trial, mean[:], meanLanes[:])
	}
}
