package threeline

import (
	"fmt"
	"slices"
	"time"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Plan is the part of the 3-line fit that depends only on the
// temperature series and the Config, computed once and shared by every
// consumer fitted against those temperatures. It is immutable after
// NewPlan and safe for concurrent use; each goroutine brings its own
// Scratch.
//
// Hours are indexed by int32: a plan for a year is 35 KB, and a series
// past 2^31 hours is a quarter of a million years.
type Plan struct {
	cfg   Config // defaults filled
	hours int    // length of the temperature series

	// perm lists the hours of every bin with at least MinBinPoints hours,
	// bin after bin in ascending temperature, in hour order within a bin.
	// Bin b is perm[off[b]:off[b+1]] and has the centre xs[b].
	perm []int32
	off  []int32
	xs   []float64

	sx, sxx []float64 // segFitter's x-side prefix sums over xs
}

// Scratch holds the buffers Plan.Compute works in, so that a loop over
// consumers allocates them once. The zero value is ready to use; it is
// not safe for concurrent use.
type Scratch struct {
	vals         []float64 // the consumer's readings in perm order
	lows, highs  []float64 // the percentile point set
	sy, sxy, syy []float64 // segFitter's y-side prefix sums
	right        []stats.Line
	rightSSE     []float64 // segFitter's right segments
}

// NewPlan bins the temperature series once for every consumer that will
// be fitted against it. A nil series is an empty one: every consumer is
// then refused for its length, as an error and not a nil dereference.
func NewPlan(temp *timeseries.Temperature, cfg Config) *Plan {
	cfg.fillDefaults()
	var temps []float64
	if temp != nil {
		temps = temp.Values
	}
	n := len(temps)
	p := &Plan{cfg: cfg, hours: n}

	// The hours that have a bin, ascending, and the key of each one's bin.
	hrs := make([]int32, 0, n)
	keys := make([]int, 0, n)
	var minKey, maxKey int
	for i, t := range temps {
		k, ok := BinIndex(t, cfg.BinWidth)
		if !ok {
			continue
		}
		if len(keys) == 0 || k < minKey {
			minKey = k
		}
		if len(keys) == 0 || k > maxKey {
			maxKey = k
		}
		hrs = append(hrs, int32(i))
		keys = append(keys, k)
	}

	// Turn every key into its slot, 0..nslots-1 in ascending key order.
	// A year of temperatures spans under a hundred one-degree bins, so
	// the slot is the distance from the lowest key; only when the keys
	// lie far apart for their number (a very small BinWidth, one absurd
	// temperature) are the distinct keys sorted and searched instead.
	// The unsigned difference is exact even when the signed one
	// overflows.
	var distinct []int
	nslots := 0
	switch span := uint64(maxKey) - uint64(minKey); {
	case len(keys) == 0:
	case span < uint64(4*len(keys)+64):
		nslots = int(span) + 1
		for j := range keys {
			keys[j] -= minKey
		}
	default:
		distinct = slices.Clone(keys)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		nslots = len(distinct)
		for j, k := range keys {
			keys[j], _ = slices.BinarySearch(distinct, k)
		}
	}
	keyOf := func(slot int) int {
		if distinct != nil {
			return distinct[slot]
		}
		return minKey + slot
	}

	// A stable counting sort of the hours by slot that leaves out the
	// slots with too few hours: count, turn the counts of the kept slots
	// into their first positions, place.
	next := make([]int32, nslots)
	for _, s := range keys {
		next[s]++
	}
	kept := 0
	for _, c := range next {
		if int(c) >= cfg.MinBinPoints {
			kept++
		}
	}
	p.xs = make([]float64, 0, kept)
	p.off = make([]int32, 0, kept+1)
	total := int32(0)
	for s, c := range next {
		if int(c) < cfg.MinBinPoints {
			next[s] = -1
			continue
		}
		p.xs = append(p.xs, binCentre(keyOf(s), cfg.BinWidth))
		p.off = append(p.off, total)
		next[s] = total
		total += c
	}
	p.off = append(p.off, total)
	p.perm = make([]int32, total)
	for j, s := range keys {
		if at := next[s]; at >= 0 {
			p.perm[at] = hrs[j]
			next[s] = at + 1
		}
	}

	p.sx, p.sxx = xPrefixSums(p.xs)
	return p
}

// Compute fits the 3-line model for one consumer whose readings align
// with the plan's temperatures, working in sc, and reports the
// per-phase timings. Only the Result is allocated.
func (p *Plan) Compute(s *timeseries.Series, sc *Scratch) (*Result, Timing, error) {
	var tm Timing
	if len(s.Readings) != p.hours {
		return nil, tm, fmt.Errorf("threeline: consumer %d has %d readings but %d temperatures",
			s.ID, len(s.Readings), p.hours)
	}
	if p.hours == 0 {
		return nil, tm, fmt.Errorf("%w: consumer %d is empty", ErrInsufficientData, s.ID)
	}
	sc.size(p)

	// Phase T1: per-temperature-bin percentiles.
	start := time.Now()
	p.percentilePoints(s.Readings, sc)
	tm.T1Quantiles = time.Since(start)

	// Phases T2 + T3 on the extracted point set.
	f := segFitter{x: p.xs, sx: p.sx, sxx: p.sxx, sy: sc.sy, sxy: sc.sxy, syy: sc.syy, right: sc.right, rightSSE: sc.rightSSE}
	res, t2, t3, err := fitPoints(s.ID, &f, sc.lows, sc.highs, p.cfg)
	tm.T2Regression, tm.T3Adjust = t2, t3
	return res, tm, err
}

// size gives the buffers the lengths p works with.
func (sc *Scratch) size(p *Plan) {
	nb := len(p.xs)
	sc.vals = grown(sc.vals, len(p.perm))
	sc.lows, sc.highs = grown(sc.lows, nb), grown(sc.highs, nb)
	sc.sy, sc.sxy, sc.syy = grown(sc.sy, nb+1), grown(sc.sxy, nb+1), grown(sc.syy, nb+1)
	sc.right, sc.rightSSE = grown(sc.right, nb+1), grown(sc.rightSSE, nb+1)
}

// grown returns buf with length n, reallocated only if it is too small.
func grown[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// percentilePoints is phase T1 for one consumer: it gathers the
// readings of the populated bins into sc.vals, one bin after another,
// and selects each bin's low and high percentile into sc.lows and
// sc.highs. No map, no sort, no allocation.
func (p *Plan) percentilePoints(readings []float64, sc *Scratch) {
	vals := sc.vals[:len(p.perm)]
	for k, h := range p.perm {
		vals[k] = readings[h]
	}
	for b := range sc.lows {
		sc.lows[b], sc.highs[b] = stats.SelectQuantilePair(vals[p.off[b]:p.off[b+1]], p.cfg.LowQ, p.cfg.HighQ)
	}
}
