package cursortest

import (
	"sort"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Append-atomicity conformance for core.Appender implementations. A
// batch that breaks the ordering or temperature contract must be
// refused whole. Each failing batch below mixes good readings, before
// and after the bad one and on households whose writer shards come
// before and after its, with one reading of one error kind. After the
// refusal the epoch must not have moved and a fresh snapshot must equal
// the one taken before the batch, bit for bit and temperature column
// included; the batch re-offered without its bad reading must then
// commit, and offered again change nothing.

// atomicityCases are failing batches over households a < b < c that
// each hold n hours; bad is the index of the bad reading, -1 the last.
var atomicityCases = []struct {
	name  string
	batch func(a, b, c timeseries.ID, n int) []core.Reading
	bad   int
}{
	{"household gap on a later shard", func(a, b, _ timeseries.ID, n int) []core.Reading {
		return []core.Reading{at(a, n-1), at(a, n), at(a, n+1), at(b, n), at(b, n+2)}
	}, -1},
	{"household gap after another household's run", func(a, b, _ timeseries.ID, n int) []core.Reading {
		return []core.Reading{at(a, n), at(b, n), at(b, n+1), at(b, n+2), at(a, n+2)}
	}, -1},
	{"temperature gap", func(a, b, _ timeseries.ID, n int) []core.Reading {
		return []core.Reading{at(a, n), at(b, n), at(a, n+2)}
	}, -1},
	{"negative hour", func(a, b, c timeseries.ID, n int) []core.Reading {
		return []core.Reading{at(a, n), at(b, n), at(c, -1), at(c, n)}
	}, 2},
	{"household id 0", func(a, b, c timeseries.ID, n int) []core.Reading {
		return []core.Reading{at(a, n), at(b, n), at(0, n), at(c, n)}
	}, 2},
	{"household gap on the last shard", func(a, b, c timeseries.ID, n int) []core.Reading {
		return []core.Reading{at(a, n), at(a, n+1), at(a, n+2), at(b, n), at(c, n), at(c, n+2)}
	}, -1},
}

// at is household id's reading for an absolute hour, with the isolation
// suite's values.
func at(id timeseries.ID, hour int) core.Reading {
	return core.Reading{ID: id, Hour: hour, Consumption: IsolationValue(id, hour), Temperature: IsolationTemp(hour)}
}

// RunAppendAtomicity sends the failing batches to app. ids (at least
// three, ascending) each hold base hours of IsolationValue and
// IsolationTemp readings; at base 0 they do not exist yet. Run it from a
// test whose name matches the CI recovery pattern so it executes under
// -race.
func RunAppendAtomicity(t *testing.T, app core.Appender, ids []timeseries.ID, base int) {
	t.Helper()
	if len(ids) < 3 {
		t.Fatalf("RunAppendAtomicity needs three households, got %d", len(ids))
	}
	a, b, c := ids[0], ids[1], ids[len(ids)-1]
	hours := make(map[timeseries.ID]int, len(ids))
	for _, id := range ids {
		hours[id] = base
	}
	// A good day first, so every household has hours to redeliver.
	n := base + timeseries.HoursPerDay
	appendUpTo(t, app, ids, hours, n)
	for _, tc := range atomicityCases {
		batch := tc.batch(a, b, c, n)
		bad := tc.bad
		if bad < 0 {
			bad = len(batch) - 1
		}
		before, epoch := drainSnapshot(t, app)
		if err := app.Append(batch); err == nil {
			t.Fatalf("%s: Append succeeded, want an error", tc.name)
		}
		after, epoch2 := drainSnapshot(t, app)
		if epoch2 != epoch {
			t.Fatalf("%s: a refused batch moved the epoch %d -> %d", tc.name, epoch, epoch2)
		}
		sameSeries(t, tc.name+": after the refused batch", after, before)

		good := append(append([]core.Reading(nil), batch[:bad]...), batch[bad+1:]...)
		for offer := core.Epoch(1); offer <= 2; offer++ {
			appendBatch(t, app, good, hours)
			got, epoch3 := drainSnapshot(t, app)
			if epoch3 != epoch+offer {
				t.Fatalf("%s: offer %d of the good readings left epoch %d, want %d", tc.name, offer, epoch3, epoch+offer)
			}
			sameSeries(t, tc.name+": after the good readings", got, committed(hours))
		}
		for _, id := range ids {
			if hours[id] > n {
				n = hours[id]
			}
		}
		appendUpTo(t, app, ids, hours, n)
	}
}

// appendUpTo appends every household's readings up to hour n.
func appendUpTo(t *testing.T, app core.Appender, ids []timeseries.ID, hours map[timeseries.ID]int, n int) {
	t.Helper()
	var batch []core.Reading
	for _, id := range ids {
		for h := hours[id]; h < n; h++ {
			batch = append(batch, at(id, h))
		}
	}
	appendBatch(t, app, batch, hours)
}

// appendBatch appends a batch that must commit and moves hours past its
// fresh readings.
func appendBatch(t *testing.T, app core.Appender, batch []core.Reading, hours map[timeseries.ID]int) {
	t.Helper()
	if err := app.Append(batch); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for _, r := range batch {
		if r.Hour == hours[r.ID] {
			hours[r.ID]++
		}
	}
}

// drainSnapshot drains a fresh snapshot. Its temperature column rides
// along after the households as household 0, which the contract never
// admits.
func drainSnapshot(t *testing.T, app core.Appender) ([]snapshot, core.Epoch) {
	t.Helper()
	cur, epoch, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cur.Close() }()
	out := drain(t, cur)
	temp, err := cur.Temperature()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, snapshot{readings: append([]float64(nil), temp.Values...)}), epoch
}

// committed is what drainSnapshot must return when every household
// holds hours of the isolation suite's readings.
func committed(hours map[timeseries.ID]int) []snapshot {
	var out []snapshot
	longest := 0
	for id, n := range hours {
		s := snapshot{id: id, readings: make([]float64, n)}
		for h := range s.readings {
			s.readings[h] = IsolationValue(id, h)
		}
		out = append(out, s)
		longest = max(longest, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	temp := make([]float64, longest)
	for h := range temp {
		temp[h] = IsolationTemp(h)
	}
	return append(out, snapshot{readings: temp})
}
