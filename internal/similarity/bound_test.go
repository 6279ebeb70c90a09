package similarity

import (
	"math"
	"testing"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// boundValue maps one fuzz byte to a reading: a small multiple of 1/4
// of either sign (so sums cancel), scaled by a magnitude from 1e-310 to
// 1e300 (1e-160 and 1e155 among them, whose squares underflow into
// subnormals or overflow), or a value arithmetic does not survive.
func boundValue(b byte) float64 {
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
		return 0
	}
	scales := [...]float64{1, 1, 1, 1, 1e-300, 1e300, 1e-150, 1e150, 1e-20, 1e20, 1e100, 1e-100, 1e-310, 1e-160, 1e155}
	return float64(int(b%16)-8) / 4 * scales[int(b/16)%len(scales)]
}

// FuzzBoundHoldsOrNeverSkips turns bytes into 2 to 7 rows (the first
// byte) of 1 to 60 readings (the second), reduced at a segment of 1 to
// 24 readings (the third) so that tails and segments longer than the row
// come up, and readings (the rest, repeated when short). For every pair
// of rows, the exact score must be at most the bound plus the margin —
// or one of the rows must be one the engine never skips.
func FuzzBoundHoldsOrNeverSkips(f *testing.F) {
	f.Add([]byte{3, 24, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{4, 59, 11, 7, 9, 7, 9, 24, 40, 72, 88, 120, 104, 136, 152, 255, 254, 253, 252, 251})
	f.Add([]byte{2, 13, 5, 150, 155, 146, 157, 159, 145, 3, 12})
	f.Add([]byte{5, 40, 23, 200, 201, 190, 185, 2, 4, 6, 8, 10, 12, 14})
	f.Add([]byte{6, 17, 0, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, length, seg := 2+int(data[0])%6, 1+int(data[1])%60, 1+int(data[2])%24
		body := data[3:]
		rows := make([]float64, n*length)
		for i := range rows {
			rows[i] = boundValue(body[i%len(body)])
		}
		ids := make([]timeseries.ID, n)
		for i := range ids {
			ids[i] = timeseries.ID(i + 1)
		}
		d, err := timeseries.PackedDataset(ids, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Flat()
		if err != nil {
			t.Fatal(err)
		}
		s := &scan{m: m}
		if err := s.reduce(seg, 1); err != nil {
			t.Fatal(err)
		}
		mg := margin(length)
		var score, bound [1]float64
		for q := range n {
			for c := q + 1; c < n; c++ {
				if !s.boundable(q) || !s.boundable(c) {
					continue
				}
				stats.CosineTile(score[:], m.Data(), length, m.InvNorms(), []int{q}, []int{c})
				stats.CosineTile(bound[:], s.red, s.redLen, m.InvNorms(), []int{q}, []int{c})
				if !(score[0] <= bound[0]+mg) {
					t.Fatalf("rows %d, %d (len %d, segment %d): score %g above bound %g + margin %g\n%v\n%v",
						q, c, length, seg, score[0], bound[0], mg, m.Row(q), m.Row(c))
				}
			}
		}
	})
}
