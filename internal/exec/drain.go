package exec

import (
	"cmp"
	"context"
	"errors"
	"io"
	"slices"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// This file is how the whole-dataset similarity task extracts. The
// partition cursors drain in parallel, each into its share of one
// row-major buffer that the run owns, and that buffer becomes the packed
// matrix the kernel reads: no row is allocated per consumer and nothing
// is copied into a second packing.
//
// Partition p fills slots starting at the sum of the earlier partitions'
// SizeHints, one row of the temperature year's length each. A cursor
// that is a core.RowTaker decodes straight into its slot; any other
// cursor's row is copied into the slot on the partition's goroutine,
// while it is still in cache. A consumer the fail policy quarantines
// leaves its slot to the next one, and a repaired copy is copied in. A
// cursor with no hint, rows past a hint that understates, and rows of
// another length get no slot and pass through as they are.
//
// When every row sits in its slot and the partitions are ascending ID
// ranges, the slots left empty (quarantined consumers, hints that
// overstate) are closed up and the buffer is handed to
// timeseries.PackedDataset. Otherwise (the cluster engines' partitions
// interleave, and may not hint) the series are put in ID order and the
// kernel's Flat copies them into a packing, as it would any dataset.

// drainDataset reads the cursors into one dataset in ascending
// household-ID order, a goroutine per cursor when there are several,
// and closes them. The lowest failing partition's error wins, and a
// failure stops the partitions after it (eachPartition); cancelling ctx
// stops every partition.
func drainDataset(ctx context.Context, curs []core.Cursor, temp *timeseries.Temperature, cn *contain) (*timeseries.Dataset, error) {
	length := 0
	if temp != nil {
		length = len(temp.Values)
	}
	parts := make([]drainPart, len(curs))
	slots := 0
	for p, cur := range curs {
		parts[p].first = slots
		if n, ok := cur.SizeHint(); ok && n > 0 && length > 0 {
			parts[p].slots = n
		}
		slots += parts[p].slots
	}
	buf := make([]float64, slots*length)

	if err := eachPartition(ctx, len(curs), func(ctx context.Context, p int) (err error) {
		defer func() { _ = curs[p].Close() }()
		// A panic while decoding becomes the partition's error rather
		// than killing the process.
		defer func() {
			if v := recover(); v != nil {
				err = core.NewPanicError(v)
			}
		}()
		return parts[p].drain(ctx, curs[p], buf, length, cn)
	}); err != nil {
		return nil, err
	}

	n, loose := 0, false
	for _, d := range parts {
		n += len(d.series)
		loose = loose || d.loose
	}
	series := make([]*timeseries.Series, 0, n)
	for _, d := range parts {
		series = append(series, d.series...)
	}
	byID := func(a, b *timeseries.Series) int { return cmp.Compare(a.ID, b.ID) }
	if !slices.IsSortedFunc(series, byID) {
		slices.SortFunc(series, byID)
	} else if n > 0 && !loose {
		return packSlots(parts, series, buf, length, temp)
	}
	return &timeseries.Dataset{Series: series, Temperature: temp}, nil
}

// drainPart is one partition's share of a drain.
type drainPart struct {
	first, slots int // the partition's slots in the run's buffer
	series       []*timeseries.Series
	loose        bool // some series has no slot
}

// drain pulls the cursor's series under the fail policy, as fill does,
// into the partition's slots. The slot is offered again after every
// consumer that does not keep it.
func (d *drainPart) drain(ctx context.Context, cur core.Cursor, buf []float64, length int, cn *contain) error {
	taker, _ := cur.(core.RowTaker)
	d.series = make([]*timeseries.Series, 0, d.slots)
	filled := 0
	for {
		var slot []float64
		if filled < d.slots {
			i := d.first + filled
			slot = buf[i*length : (i+1)*length : (i+1)*length]
			if taker != nil {
				taker.TakeRow(slot)
			}
		}
		s, err := cn.next(ctx, cur)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if s == nil {
			continue // quarantined
		}
		if s = cn.screen(s); s == nil {
			continue
		}
		if slot != nil && len(s.Readings) == length {
			if &s.Readings[0] != &slot[0] {
				copy(slot, s.Readings)
				s = &timeseries.Series{ID: s.ID, Readings: slot}
			}
			filled++
		} else {
			d.loose = true
		}
		d.series = append(d.series, s)
	}
}

// packSlots closes up the slots the partitions left empty and hands the
// buffer to the dataset as its packing. Every series sits in its
// partition's slots, in order, and the partitions ascend.
func packSlots(parts []drainPart, series []*timeseries.Series, buf []float64, length int, temp *timeseries.Temperature) (*timeseries.Dataset, error) {
	next := 0
	for _, d := range parts {
		k := len(d.series)
		if d.first != next {
			copy(buf[next*length:(next+k)*length], buf[d.first*length:(d.first+k)*length])
		}
		next += k
	}
	ids := make([]timeseries.ID, len(series))
	for i, s := range series {
		ids[i] = s.ID
	}
	return timeseries.PackedDataset(ids, buf[:next*length], temp)
}
