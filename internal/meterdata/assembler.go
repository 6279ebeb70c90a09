package meterdata

import (
	"fmt"
	"sort"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Assembler accumulates individual readings into per-consumer series
// aligned to the temperature year: every assembled series has exactly
// tempLen readings, hours are bounds-checked, and missing hours stay
// zero. It centralizes the temperature-alignment step every extract
// path used to hand-roll (the file engine's index scan, the cluster
// engine's map-side and reduce-side assembly).
type Assembler struct {
	tempLen int
	byID    map[timeseries.ID][]float64
}

// NewAssembler returns an assembler producing series of tempLen hours —
// the length of the temperature series the readings align to.
func NewAssembler(tempLen int) *Assembler {
	return &Assembler{tempLen: tempLen, byID: make(map[timeseries.ID][]float64)}
}

// Add records one reading, rejecting hours outside the temperature
// year.
func (a *Assembler) Add(r Reading) error {
	if r.Hour < 0 || r.Hour >= a.tempLen {
		return fmt.Errorf("meterdata: hour %d outside series of %d hours", r.Hour, a.tempLen)
	}
	readings := a.byID[r.ID]
	if readings == nil {
		readings = make([]float64, a.tempLen)
		a.byID[r.ID] = readings
	}
	readings[r.Hour] = r.Consumption
	return nil
}

// Len returns the number of distinct consumers added so far.
func (a *Assembler) Len() int { return len(a.byID) }

// Series returns the assembled series in ascending household-ID order.
func (a *Assembler) Series() []*timeseries.Series {
	ids := make([]timeseries.ID, 0, len(a.byID))
	for id := range a.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*timeseries.Series, 0, len(ids))
	for _, id := range ids {
		out = append(out, &timeseries.Series{ID: id, Readings: a.byID[id]})
	}
	return out
}
