package benchmark

import (
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
)

// TestFig9ShapeInPoolFetches states Figure 9's shape in counts rather
// than times: a cold histogram run looks up fewer buffer-pool pages per
// consumer over the array layout than over the row layout, and on both
// far fewer than the row layout has tuples — extraction pays per page,
// not per tuple, so what separates the layouts is how many pages a
// consumer spans.
func TestFig9ShapeInPoolFetches(t *testing.T) {
	opts := smallOpts(t)
	n := opts.Scale.BaseConsumers
	srcs, err := opts.makeSources(n, "fig9", false, false)
	if err != nil {
		t.Fatal(err)
	}
	fetches := map[rowstore.Layout]int64{}
	for _, layout := range []rowstore.Layout{rowstore.LayoutRows, rowstore.LayoutArrays} {
		e := rowstore.New(t.TempDir(), rowstore.WithLayout(layout))
		defer e.Close()
		if _, err := e.Load(srcs.unpartRPL); err != nil {
			t.Fatal(err)
		}
		if err := e.Release(); err != nil {
			t.Fatal(err)
		}
		h0, m0 := e.PoolStats()
		if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err != nil {
			t.Fatal(err)
		}
		h1, m1 := e.PoolStats()
		fetches[layout] = (h1 - h0 + m1 - m0) / int64(n)
	}
	rows, arrays := fetches[rowstore.LayoutRows], fetches[rowstore.LayoutArrays]
	tuples := int64(opts.Scale.Days * 24)
	t.Logf("pool fetches per consumer: %d (rows), %d (arrays); %d tuples per consumer in the row layout", rows, arrays, tuples)
	if arrays >= rows {
		t.Errorf("array layout fetches %d pages per consumer, row layout %d: arrays should span fewer pages", arrays, rows)
	}
	if rows*10 > tuples {
		t.Errorf("row layout fetches %d pages per consumer for %d tuples: extraction is paying per tuple again", rows, tuples)
	}
}
