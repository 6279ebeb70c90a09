package timeseries

import (
	"errors"
	"fmt"

	"github.com/smartmeter/smartbench/internal/stats"
)

// FlatMatrix is a dense, read-only view of n equal-length series packed
// into one contiguous row-major []float64, with each row's inverse L2
// norm precomputed. It is the input format of the blocked similarity
// kernel (stats.CosineTile): one flat buffer keeps the O(n²) scan
// sequential in memory instead of pointer-chasing per-series slices.
//
// The matrix is a snapshot: callers must not mutate the underlying
// readings while holding it (when the packing is shared with the source
// series, mutations would also desynchronize the cached norms).
type FlatMatrix struct {
	n, length int
	data      []float64 // n*length values, row i = series i
	invNorms  []float64 // 1/||row i||, 0 for a zero-norm row
	ids       []ID
	shared    bool // data aliases the source series' storage
}

// ErrRaggedMatrix is returned by PackMatrix when the series do not all
// have the same length.
var ErrRaggedMatrix = errors.New("timeseries: series lengths differ")

// PackMatrix builds a FlatMatrix over the given series. When the series
// are already one contiguous row-major buffer (the column store's Warm
// decodes its segments that way), the buffer is adopted zero-copy;
// otherwise the readings are copied into a fresh packing. Series of
// length zero are rejected, as are ragged lengths.
func PackMatrix(series []*Series) (*FlatMatrix, error) {
	n := len(series)
	if n == 0 {
		return nil, errors.New("timeseries: PackMatrix needs at least one series")
	}
	length := len(series[0].Readings)
	if length == 0 {
		return nil, fmt.Errorf("timeseries: PackMatrix: series %d has no readings", series[0].ID)
	}
	for _, s := range series {
		if len(s.Readings) != length {
			return nil, fmt.Errorf("%w: series %d has %d readings, series %d has %d",
				ErrRaggedMatrix, s.ID, len(s.Readings), series[0].ID, length)
		}
	}

	m := &FlatMatrix{n: n, length: length, ids: make([]ID, n)}
	for i, s := range series {
		m.ids[i] = s.ID
	}
	if base := contiguousBacking(series, length); base != nil {
		m.data = base
		m.shared = true
	} else {
		m.data = make([]float64, n*length)
		for i, s := range series {
			copy(m.data[i*length:(i+1)*length], s.Readings)
		}
	}
	m.invNorms = make([]float64, n)
	for i := 0; i < n; i++ {
		if nm := stats.Norm(m.data[i*length : (i+1)*length]); !stats.IsZero(nm) {
			m.invNorms[i] = 1 / nm
		}
	}
	return m, nil
}

// contiguousBacking returns the shared row-major buffer behind the
// series, or nil if they are not laid out back-to-back in one
// allocation. The check is pure pointer identity on the first element
// of every row against the first row's extended slice, so it never
// reads past what the caller actually allocated.
func contiguousBacking(series []*Series, length int) []float64 {
	total := len(series) * length
	first := series[0].Readings
	if cap(first) < total {
		return nil
	}
	base := first[:total]
	for i, s := range series {
		if &s.Readings[0] != &base[i*length] {
			return nil
		}
	}
	return base
}

// N returns the number of rows (series).
func (m *FlatMatrix) N() int { return m.n }

// Len returns the row length (readings per series).
func (m *FlatMatrix) Len() int { return m.length }

// Row returns row i as a view of the packed buffer.
func (m *FlatMatrix) Row(i int) []float64 { return m.data[i*m.length : (i+1)*m.length] }

// ID returns the household ID of row i.
func (m *FlatMatrix) ID(i int) ID { return m.ids[i] }

// InvNorm returns the precomputed inverse norm of row i (0 for a
// zero-norm row, so cosine scores against it come out 0).
func (m *FlatMatrix) InvNorm(i int) float64 { return m.invNorms[i] }

// Data returns the full row-major packing (read-only by convention).
func (m *FlatMatrix) Data() []float64 { return m.data }

// InvNorms returns the per-row inverse norms (read-only by convention).
func (m *FlatMatrix) InvNorms() []float64 { return m.invNorms }

// Shared reports whether the packing aliases the source series'
// storage (zero-copy) rather than owning a private copy.
func (m *FlatMatrix) Shared() bool { return m.shared }

// Flat returns the dataset packed as a FlatMatrix, building it on first
// use and caching it for subsequent calls. Engines drop their decoded
// dataset on Release, which drops the cached packing with it; callers
// that mutate readings in place must call ReleaseFlat to invalidate the
// cache (the engines' Append paths build fresh datasets instead).
func (d *Dataset) Flat() (*FlatMatrix, error) {
	d.flatMu.Lock()
	defer d.flatMu.Unlock()
	if d.flat == nil {
		m, err := PackMatrix(d.Series)
		if err != nil {
			return nil, err
		}
		d.flat = m
	}
	return d.flat, nil
}

// ReleaseFlat drops the cached packing built by Flat.
func (d *Dataset) ReleaseFlat() {
	d.flatMu.Lock()
	d.flat = nil
	d.flatMu.Unlock()
}
