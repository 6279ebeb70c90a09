package par

import "github.com/smartmeter/smartbench/internal/stats"

// useAVX selects the assembly for the four-hour sums. It is set once,
// from the CPU check the similarity kernel takes, and tests clear it to
// run the Go lanes.
var useAVX = stats.HasAVX()

// The assembly twins of the Go lanes in kernel.go, one 256-bit register
// per four-hour chain, multiplying then adding (VMULPD then VADDPD,
// never an FMA). Each pointer addresses the group's first hour of its
// first day, and the kernels step 24 values, one day, at a time.

//go:noescape
func ySumsAVX(acc *[4 * lanes]float64, y, t *float64, head, days int)

//go:noescape
func lagSumsAVX(acc *[6 * lanes]float64, x, y, t, a, b, c *float64, n int)

//go:noescape
func rSquaredAVX(ss *[2 * lanes]float64, c, y, t, coef *float64, m *laneModel, order, n int)

//go:noescape
func profileAVX(mean *[hoursPerDay]float64, readings, temps *float64, slope *[hoursPerDay]float64, days int)
