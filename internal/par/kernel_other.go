//go:build !amd64

package par

// useAVX is false off amd64: Plan.Compute runs the Go lanes alone.
var useAVX = false

func ySumsAVX(acc *[4 * lanes]float64, y, t *float64, head, days int) {
	panic("par: no vector kernel on this platform")
}

func lagSumsAVX(acc *[6 * lanes]float64, x, y, t, a, b, c *float64, n int) {
	panic("par: no vector kernel on this platform")
}

func rSquaredAVX(ss *[2 * lanes]float64, c, y, t, coef *float64, m *laneModel, order, n int) {
	panic("par: no vector kernel on this platform")
}

func profileAVX(mean *[hoursPerDay]float64, readings, temps *float64, slope *[hoursPerDay]float64, days int) {
	panic("par: no vector kernel on this platform")
}
