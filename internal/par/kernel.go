package par

// The sums Plan.Compute takes over the days run four hours of the day
// at a time: a day-major series holds hours h..h+3 of one day side by
// side, so one 256-bit register carries four hours' chains. Each
// function below takes a group's series as slices that start at the
// group's first hour (of some day) and step a day, 24 values, at a
// time; lane l is hour h+l. Every lane adds exactly the terms the
// hour-at-a-time kernel added, in day order, multiplying and then
// adding, so the groups give its bits. Each dispatches on useAVX to the
// amd64 assembly (kernel_amd64.s) or to its Go lanes, which are the
// path everywhere else and the oracle the assembly is tested against.
// Products are written float64(x*y) so that no compiler fuses them.

// lanes is the hours of the day one group fits side by side: four
// float64s, one 256-bit register.
const lanes = 4

// laneModel is what rSquared needs of each lane's fitted model: the
// constant, the temperature coefficient, the mean consumption and a
// mask that is all ones where the model has the temperature term and
// zero where it does not (the no-temperature retry). The assembly reads
// it at fixed offsets.
type laneModel struct {
	k, b, ybar [lanes]float64
	mask       [lanes]uint64
}

// span is the index of a group's last value over n days.
func span(n int) int { return (n-1)*hoursPerDay + lanes - 1 }

// ySums sets acc[l], acc[4+l] to Σy and Σt·y over every day of lane l,
// and acc[8+l], acc[12+l] to the same sums over the days from head on;
// the two pairs share each product.
func ySums(acc *[4 * lanes]float64, y, t []float64, head, days int) {
	last := span(days)
	_, _ = y[last], t[last]
	if useAVX {
		ySumsAVX(acc, &y[0], &t[0], head, days)
		return
	}
	ySumsLanes(acc, y, t, head, days)
}

// lagSums sets acc[l], acc[4+l], …, acc[20+l] to Σx, Σx·y, Σx·t, Σx·a,
// Σx·b and Σx·c over n days of lane l. Six chains are what the default
// order needs of a lag at most, and they fit the registers.
func lagSums(acc *[6 * lanes]float64, x, y, t, a, b, c []float64, n int) {
	last := span(n)
	_, _, _, _, _, _ = x[last], y[last], t[last], a[last], b[last], c[last]
	if useAVX {
		lagSumsAVX(acc, &x[0], &y[0], &t[0], &a[0], &b[0], &c[0], n)
		return
	}
	lagSumsLanes(acc, x, y, t, a, b, c, n)
}

// rSquared sets ss[l] and ss[4+l] to the residual and the total sum of
// squares of lane l's model over n observed days: y and t start at the
// first observed day, c order days earlier, and the prediction
// k + Σ coef[4j+l]·lag(j+1) (+ b·t) is summed in that order.
func rSquared(ss *[2 * lanes]float64, c, y, t, coef []float64, m *laneModel, order, n int) {
	last := span(n)
	_, _, _, _ = c[last+order*hoursPerDay-hoursPerDay], y[last], t[last], coef[lanes*order-1]
	if useAVX {
		rSquaredAVX(ss, &c[0], &y[0], &t[0], &coef[0], m, order, n)
		return
	}
	rSquaredLanes(ss, c, y, t, coef, m, order, n)
}

// profile averages the temperature-independent load reading - slope·T
// of each hour of the day over the days, as 24 running means
// (stats.Moments' update) that advance together one day at a time: the
// means of one hour form a chain of divisions, those of different hours
// do not wait for one another.
func profile(mean *[hoursPerDay]float64, readings, temps []float64, slope *[hoursPerDay]float64, days int) {
	_, _ = readings[days*hoursPerDay-1], temps[days*hoursPerDay-1]
	if useAVX {
		profileAVX(mean, &readings[0], &temps[0], slope, days)
		return
	}
	profileLanes(mean, readings, temps, slope, days)
}

func ySumsLanes(acc *[4 * lanes]float64, y, t []float64, head, days int) {
	for l := 0; l < lanes; l++ {
		var syAll, styAll, sy, sty float64
		o := l
		for ; o < head*hoursPerDay; o += hoursPerDay {
			v := y[o]
			syAll += v
			styAll += float64(t[o] * v)
		}
		for ; o < days*hoursPerDay; o += hoursPerDay {
			v := y[o]
			tv := float64(t[o] * v)
			syAll += v
			styAll += tv
			sy += v
			sty += tv
		}
		acc[l], acc[lanes+l], acc[2*lanes+l], acc[3*lanes+l] = syAll, styAll, sy, sty
	}
}

func lagSumsLanes(acc *[6 * lanes]float64, x, y, t, a, b, c []float64, n int) {
	for l := 0; l < lanes; l++ {
		var s, sy, st, sa, sb, sc float64
		for o := l; o < n*hoursPerDay; o += hoursPerDay {
			v := x[o]
			s += v
			sy += float64(v * y[o])
			st += float64(v * t[o])
			sa += float64(v * a[o])
			sb += float64(v * b[o])
			sc += float64(v * c[o])
		}
		acc[l], acc[lanes+l], acc[2*lanes+l] = s, sy, st
		acc[3*lanes+l], acc[4*lanes+l], acc[5*lanes+l] = sa, sb, sc
	}
}

func rSquaredLanes(ss *[2 * lanes]float64, c, y, t, coef []float64, m *laneModel, order, n int) {
	for l := 0; l < lanes; l++ {
		var ssRes, ssTot float64
		for o := l; o < n*hoursPerDay; o += hoursPerDay {
			pred := m.k[l]
			// Lag j+1 of the observed day at o is c[o+(order-1-j)*24].
			for j, lag := 0, o+(order-1)*hoursPerDay; j < order; j, lag = j+1, lag-hoursPerDay {
				pred += float64(coef[lanes*j+l] * c[lag])
			}
			// A lane without the temperature adds no term; the assembly
			// adds +0 instead, which can only turn a -0 prediction into
			// +0, and r·r is the same for either.
			if m.mask[l] != 0 {
				pred += float64(m.b[l] * t[o])
			}
			r := y[o] - pred
			ssRes += float64(r * r)
			dy := y[o] - m.ybar[l]
			ssTot += float64(dy * dy)
		}
		ss[l], ss[lanes+l] = ssRes, ssTot
	}
}

func profileLanes(mean *[hoursPerDay]float64, readings, temps []float64, slope *[hoursPerDay]float64, days int) {
	for d := 0; d < days; d++ {
		row := (*[hoursPerDay]float64)(readings[d*hoursPerDay:])
		trow := (*[hoursPerDay]float64)(temps[d*hoursPerDay:])
		n := float64(d + 1)
		for h := range mean {
			x := row[h] - float64(slope[h]*trow[h])
			mean[h] += (x - mean[h]) / n
		}
	}
}
