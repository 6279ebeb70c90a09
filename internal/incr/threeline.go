package incr

import (
	"sort"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Incremental 3-line maintenance (task 2). Appends keep each
// household's per-temperature-bin consumption values sorted (an
// insertion into a sorted slice yields the same contents as sorting
// from scratch, so the phase-T1 percentile extraction sees exactly the
// batch path's input). The expensive segmented fit only reruns when
// the extracted point set changes — a thermal-regime change: a bin
// crossing the population threshold or a percentile moving. Readings
// that land in still-sparse bins leave the point set untouched and the
// refresh is a skip.

type tlState struct {
	bins  map[int][]float64 // sorted consumption values per temperature bin
	stale bool

	// Last extracted point set and its fit.
	xs, lows, highs []float64
	res             *threeline.Result
	err             error
	fitted          bool
}

// applyThreeLine folds one fresh reading into the household's bins.
func (a *Analytics) applyThreeLine(id timeseries.ID, v, t float64) {
	st := a.tl[id]
	if st == nil {
		st = &tlState{bins: make(map[int][]float64)}
		a.tl[id] = st
	}
	b, ok := threeline.BinIndex(t, a.cfg.ThreeLine.BinWidth)
	if !ok {
		return // a non-finite temperature has no bin, as in the batch path
	}
	st.bins[b] = insertSorted(st.bins[b], v)
	st.stale = true
}

// insertSorted inserts v into ascending-sorted xs.
func insertSorted(xs []float64, v float64) []float64 {
	pos := sort.SearchFloat64s(xs, v)
	xs = append(xs, 0)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = v
	return xs
}

// refreshThreeLine re-extracts the household's percentile points and
// refits only if they changed since the last fit.
func (a *Analytics) refreshThreeLine(id timeseries.ID, st *tlState) {
	if !st.stale {
		return
	}
	st.stale = false
	xs, lows, highs := threeline.PointsFromSortedBins(st.bins, a.cfg.ThreeLine)
	if st.fitted && pointsEqual(xs, st.xs) && pointsEqual(lows, st.lows) && pointsEqual(highs, st.highs) {
		a.stats.TLSkips++
		return
	}
	st.xs, st.lows, st.highs = xs, lows, highs
	st.res, st.err = threeline.FitPoints(id, xs, lows, highs, a.cfg.ThreeLine)
	st.fitted = true
	a.stats.TLRefits++
}

func pointsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !stats.ExactEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ThreeLine returns the current 3-line fit for one household, or the
// fit error (e.g. threeline.ErrInsufficientData while the household's
// temperature coverage is still thin).
func (a *Analytics) ThreeLine(id timeseries.ID) (*threeline.Result, error) {
	st := a.tl[id]
	if st == nil {
		return nil, threeline.ErrInsufficientData
	}
	a.refreshThreeLine(id, st)
	return st.res, st.err
}

// ThreeLines returns the current fits for every household that has one,
// in ascending ID order, refreshing stale households along the way.
// Households whose data is still insufficient are skipped.
func (a *Analytics) ThreeLines() []*threeline.Result {
	out := make([]*threeline.Result, 0, len(a.ids))
	for _, id := range a.ids {
		st := a.tl[id]
		if st == nil {
			continue
		}
		a.refreshThreeLine(id, st)
		if st.err == nil && st.res != nil {
			out = append(out, st.res)
		}
	}
	return out
}
