package cursortest

import (
	"runtime"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// CompareResults fails the test unless got agrees bit-for-bit with
// want on every task's result set. It lives here, next to the cursor
// conformance suites, so both the exec package's own tests and engine
// tests (which cannot share exec's internal test helpers) assert the
// same notion of "identical to the reference".
func CompareResults(t *testing.T, got, want *core.Results) {
	t.Helper()
	if len(got.Histograms) != len(want.Histograms) {
		t.Fatalf("histograms: %d vs %d", len(got.Histograms), len(want.Histograms))
	}
	for i := range want.Histograms {
		g, w := got.Histograms[i], want.Histograms[i]
		if g.ID != w.ID {
			t.Fatalf("histogram %d: ID %d vs %d", i, g.ID, w.ID)
		}
		for j := range w.Histogram.Counts {
			if g.Histogram.Counts[j] != w.Histogram.Counts[j] {
				t.Fatalf("histogram %d bucket %d: %d vs %d",
					i, j, g.Histogram.Counts[j], w.Histogram.Counts[j])
			}
		}
	}
	if len(got.ThreeLines) != len(want.ThreeLines) {
		t.Fatalf("3-lines: %d vs %d", len(got.ThreeLines), len(want.ThreeLines))
	}
	for i := range want.ThreeLines {
		g, w := got.ThreeLines[i], want.ThreeLines[i]
		if g.ID != w.ID ||
			!stats.ExactEqual(g.HeatingGradient, w.HeatingGradient) ||
			!stats.ExactEqual(g.CoolingGradient, w.CoolingGradient) ||
			!stats.ExactEqual(g.BaseLoad, w.BaseLoad) {
			t.Fatalf("3-line %d: %+v vs %+v", i, g, w)
		}
	}
	if len(got.Profiles) != len(want.Profiles) {
		t.Fatalf("profiles: %d vs %d", len(got.Profiles), len(want.Profiles))
	}
	for i := range want.Profiles {
		g, w := got.Profiles[i], want.Profiles[i]
		if g.ID != w.ID {
			t.Fatalf("profile %d: ID %d vs %d", i, g.ID, w.ID)
		}
		for h := range w.Profile {
			if !stats.ExactEqual(g.Profile[h], w.Profile[h]) {
				t.Fatalf("profile %d hour %d differs", i, h)
			}
		}
	}
	if len(got.Similar) != len(want.Similar) {
		t.Fatalf("similar: %d vs %d", len(got.Similar), len(want.Similar))
	}
	for i := range want.Similar {
		g, w := got.Similar[i], want.Similar[i]
		if g.ID != w.ID {
			t.Fatalf("similar %d: ID %d vs %d", i, g.ID, w.ID)
		}
		if len(g.Matches) != len(w.Matches) {
			t.Fatalf("similar %d: %d vs %d matches", i, len(g.Matches), len(w.Matches))
		}
		for j := range w.Matches {
			if g.Matches[j].ID != w.Matches[j].ID ||
				!stats.ExactEqual(g.Matches[j].Score, w.Matches[j].Score) {
				t.Fatalf("similar %d match %d differs", i, j)
			}
		}
	}
}

// RunWarmSimilarity holds a warm engine's similarity runs at four
// workers to one packing of its warm dataset, which cache returns: two
// runs agree with the reference over ref, and the second packs nothing
// (the dataset's cached FlatMatrix is the one the first run left) and
// allocates less than a quarter of the matrix. It holds only if the
// run reads the engine's whole-dataset cursor (core.DatasetCursor), not
// range shards drained into a matrix of the run's own.
func RunWarmSimilarity(t *testing.T, e core.Engine, ref *timeseries.Dataset, cache func() *timeseries.Dataset) {
	t.Helper()
	spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: 4}
	want, err := core.RunReference(ref, spec)
	if err != nil {
		t.Fatal(err)
	}
	matrix := uint64(len(ref.Series) * len(ref.Series[0].Readings) * 8)
	var first *timeseries.FlatMatrix
	for run := 0; run < 2; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := e.Run(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		CompareResults(t, got, want)
		m, err := cache().Flat()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = m
			continue
		}
		if m != first {
			t.Fatal("the second run packed the warm dataset again")
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > matrix/4 {
			t.Fatalf("the second run allocated %d bytes against a %d-byte matrix: it packed the rows again", alloc, matrix)
		}
	}
}
