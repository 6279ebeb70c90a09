package benchmark

import (
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// TestUpdatesShape holds the updates experiment to the byte facts its
// note states, at the small scale: the column store's append leaves its
// segment file as it was, and its checkpoint replaces the file; the row
// and text stores' files grow in place at the append; and every
// household of every engine holds the day after it. It asserts no
// timing.
func TestUpdatesShape(t *testing.T) {
	opts := smallOpts(t)
	rows, dayBytes, err := measureUpdates(&opts)
	if err != nil {
		t.Fatal(err)
	}
	n := opts.Scale.BaseConsumers
	if want := int64(n * timeseries.HoursPerDay * 16); dayBytes != want {
		t.Errorf("day of %d bytes, want %d", dayBytes, want)
	}
	if len(rows) != 3 {
		t.Fatalf("%d engines measured, want 3", len(rows))
	}
	for _, r := range rows {
		if r.grew != n {
			t.Errorf("%s: %d of %d households grew by the day", r.name, r.grew, n)
		}
		if !r.inPlace {
			t.Errorf("%s: the append replaced a store file", r.name)
		}
		if !strings.HasPrefix(r.name, "colstore") {
			if r.grown <= 0 {
				t.Errorf("%s: the append grew the store by %d bytes, want some", r.name, r.grown)
			}
			continue
		}
		if r.grown != 0 {
			t.Errorf("%s: the append grew the segment file by %d bytes, want 0", r.name, r.grown)
		}
		if !r.checkpointed || !r.replaced || r.written <= 0 {
			t.Errorf("%s: checkpoint %v, replaced %v, wrote %d bytes; want a replaced file", r.name, r.checkpointed, r.replaced, r.written)
		}
	}
}
