// Fixture for the hotalloc analyzer's named hot functions in the row
// store: table.readSeriesInto runs its loop once per tuple, so it is
// policed like a kernel even though it is not a cursor Next method.
package rowstore

import "fmt"

type table struct{ tuples [][]byte }

func (tb *table) readSeriesInto(cons []float64) error {
	for i, t := range tb.tuples {
		at := func() int { return i } // want "closure allocated on every iteration of this loop"
		if len(t) == 0 {
			err := fmt.Errorf("tuple %d is empty", at()) // want "fmt.Errorf allocates on every iteration of this loop"
			_ = err
			continue
		}
		if len(t) > 8 {
			return fmt.Errorf("tuple %d of %d bytes", i, len(t)) // a return runs once, on the way out
		}
		cons[i] = float64(t[0])
	}
	return nil
}

// insertSeries is not named: loaders may allocate per tuple.
func (tb *table) insertSeries(vals []float64) {
	for _, v := range vals {
		tb.tuples = append(tb.tuples, []byte(fmt.Sprintf("%g", v)))
	}
}
