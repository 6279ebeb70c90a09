package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/impute"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

var errDrainFault = errors.New("injected permanent fault")

// drainCursor is one partition for the drain tests: the series it
// yields, in order, a SizeHint that may be wrong or missing, consumers
// that fail permanently, and an optional delay per Next. Like a decoding
// cursor it yields every series in a row of its own: the row TakeRow
// handed it when that row has the right length (takerCursor exposes
// TakeRow), a fresh one otherwise.
type drainCursor struct {
	series []*timeseries.Series
	hint   int // < 0: no hint
	fail   map[timeseries.ID]bool
	delay  time.Duration
	fresh  *atomic.Int64 // rows allocated because no row was handed over
	closes *atomic.Int64
	pulled *atomic.Int64       // consumers Next got to
	record func(row []float64) // sees every row Next yields, if set

	ctx    context.Context
	row    []float64
	i      int
	closed bool
}

func (c *drainCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *drainCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.delay > 0 {
		if err := c.sleep(); err != nil {
			return nil, err
		}
	}
	if c.closed || c.i >= len(c.series) {
		return nil, io.EOF
	}
	s := c.series[c.i]
	c.i++
	c.pulled.Add(1)
	if c.fail[s.ID] {
		return nil, &core.ConsumerError{ID: s.ID, Err: errDrainFault}
	}
	row := c.row
	if len(row) != len(s.Readings) {
		row = make([]float64, len(s.Readings))
		c.fresh.Add(1)
	}
	copy(row, s.Readings)
	c.row = nil
	if c.record != nil {
		c.record(row)
	}
	return &timeseries.Series{ID: s.ID, Readings: row}, nil
}

// sleep waits out the cursor's delay unless its bound context is
// cancelled first.
func (c *drainCursor) sleep() error {
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	t := time.NewTimer(c.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *drainCursor) Reset() error {
	c.i, c.closed = 0, false
	return nil
}

func (c *drainCursor) Close() error {
	if !c.closed {
		c.closes.Add(1)
	}
	c.closed, c.row = true, nil
	return nil
}

func (c *drainCursor) SizeHint() (int, bool) { return c.hint, c.hint >= 0 }

// takerCursor is a drainCursor that takes its rows from the caller.
type takerCursor struct{ *drainCursor }

func (c takerCursor) TakeRow(row []float64) { c.row = row }

// drainSource hands a dataset out as partitions for the drain tests.
type drainSource struct {
	ds *timeseries.Dataset
	// parts cuts the consumers into at most max partitions of indexes
	// into ds.Series; nil means contiguous near-equal ranges.
	parts func(n, max int) [][]int
	// hint is the SizeHint partition p reports for its count consumers
	// (< 0 for none); nil means exact.
	hint   func(p, count int) int
	taker  func(p int) bool // nil: every partition takes rows
	fail   map[timeseries.ID]bool
	delay  time.Duration
	record func(row []float64) // sees every row a cursor yields, if set

	fresh, closes, opened, pulled atomic.Int64
}

func (s *drainSource) Temperature() (*timeseries.Temperature, error) { return s.ds.Temperature, nil }

// NewCursors cuts the consumers with parts; NewCursors(1) is the run's
// one cursor at one worker, partition 0 holding everything.
func (s *drainSource) NewCursors(max int) ([]core.Cursor, error) {
	parts := rangeParts(len(s.ds.Series), max)
	if s.parts != nil && max > 1 {
		parts = s.parts(len(s.ds.Series), max)
	}
	curs := make([]core.Cursor, len(parts))
	for p, idx := range parts {
		curs[p] = s.cursor(p, idx)
	}
	return curs, nil
}

func (s *drainSource) cursor(p int, idx []int) core.Cursor {
	s.opened.Add(1)
	c := &drainCursor{hint: len(idx), fail: s.fail, delay: s.delay, fresh: &s.fresh, closes: &s.closes, pulled: &s.pulled, record: s.record}
	for _, i := range idx {
		c.series = append(c.series, s.ds.Series[i])
	}
	if s.hint != nil {
		c.hint = s.hint(p, len(idx))
	}
	if s.taker == nil || s.taker(p) {
		return takerCursor{c}
	}
	return c
}

// partitions is what a run at this worker count drains.
func (s *drainSource) partitions(workers int) [][]int {
	if workers == 1 {
		return rangeParts(len(s.ds.Series), 1)
	}
	if s.parts != nil {
		return s.parts(len(s.ds.Series), workers)
	}
	return rangeParts(len(s.ds.Series), workers)
}

func rangeParts(n, max int) [][]int {
	var out [][]int
	for _, r := range core.PartitionRanges(n, max) {
		var idx []int
		for i := r[0]; i < r[1]; i++ {
			idx = append(idx, i)
		}
		out = append(out, idx)
	}
	return out
}

func roundRobinParts(n, max int) [][]int {
	out := make([][]int, min(n, max))
	for i := 0; i < n; i++ {
		out[i%len(out)] = append(out[i%len(out)], i)
	}
	return out
}

// drainOracle is what a similarity run over src must produce, worked out
// without the pipeline: the dataset the reference runs on, the failures
// in ID order, or the run's error. Under FailFast the error is the first
// failing consumer of the lowest partition that has one, in its
// cursor's order; otherwise a failing consumer is quarantined, and a
// series with missing readings is quarantined or, under Repair, imputed
// (or demoted when the imputer cannot save it).
func drainOracle(src *drainSource, workers int, policy core.FailPolicy) (*timeseries.Dataset, []core.ConsumerFailure, error) {
	if policy == core.FailFast {
		for _, idx := range src.partitions(workers) {
			for _, i := range idx {
				if id := src.ds.Series[i].ID; src.fail[id] {
					return nil, nil, &core.ConsumerError{ID: id, Err: errDrainFault}
				}
			}
		}
		return src.ds, nil, nil
	}
	kept := &timeseries.Dataset{Temperature: src.ds.Temperature}
	var failed []core.ConsumerFailure
	for _, s := range src.ds.Series {
		if src.fail[s.ID] {
			failed = append(failed, core.ConsumerFailure{ID: s.ID, Phase: core.PhaseExtract, Err: &core.ConsumerError{ID: s.ID, Err: errDrainFault}})
			continue
		}
		miss := 0
		for _, v := range s.Readings {
			if math.IsNaN(v) {
				miss++
			}
		}
		switch {
		case miss == 0:
			kept.Series = append(kept.Series, s)
		case policy == core.Quarantine:
			failed = append(failed, core.ConsumerFailure{ID: s.ID, Phase: core.PhaseExtract,
				Err: fmt.Errorf("%w (%d of %d)", core.ErrMissingData, miss, len(s.Readings))})
		default:
			cp := s.Clone()
			if err := impute.CleanSeries(cp, 0); err != nil {
				failed = append(failed, core.ConsumerFailure{ID: s.ID, Phase: core.PhaseRepair, Err: err})
				continue
			}
			kept.Series = append(kept.Series, cp)
		}
	}
	return kept, failed, nil
}

// checkDrain runs similarity over src and holds it to core.RunReference
// over the oracle's dataset bit for bit: the matches and their scores
// (NaN included), the failures with their phases and error texts, or
// the run's error text.
func checkDrain(t *testing.T, src *drainSource, workers int, policy core.FailPolicy) {
	t.Helper()
	spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: workers, FailPolicy: policy}
	kept, failed, wantErr := drainOracle(src, workers, policy)
	var want *core.Results
	if wantErr == nil {
		want, wantErr = core.RunReference(kept, spec)
	}
	got, err := Run(src, spec)
	if errText(err) != errText(wantErr) {
		t.Fatalf("W=%d %v: err %q, want %q", workers, policy, errText(err), errText(wantErr))
	}
	if err != nil {
		return
	}
	if len(got.Similar) != len(want.Similar) {
		t.Fatalf("W=%d %v: %d results, want %d", workers, policy, len(got.Similar), len(want.Similar))
	}
	for i, w := range want.Similar {
		g := got.Similar[i]
		if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
			t.Fatalf("W=%d %v: result %d is consumer %d with %d matches, want %d with %d",
				workers, policy, i, g.ID, len(g.Matches), w.ID, len(w.Matches))
		}
		for j, m := range w.Matches {
			if g.Matches[j].ID != m.ID || math.Float64bits(g.Matches[j].Score) != math.Float64bits(m.Score) {
				t.Fatalf("W=%d %v: consumer %d match %d is %+v, want %+v", workers, policy, w.ID, j, g.Matches[j], m)
			}
		}
	}
	if len(got.Failed) != len(failed) {
		t.Fatalf("W=%d %v: failed %v, want %v", workers, policy, got.Failed, failed)
	}
	for i, f := range failed {
		g := got.Failed[i]
		if g.ID != f.ID || g.Phase != f.Phase || g.Err.Error() != f.Err.Error() {
			t.Fatalf("W=%d %v: failure %d is %v, want %v", workers, policy, i, g, f)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// drainFixture is 20 consumers with every kind of row the drain must
// carry: missing readings (consumer index 3 partly, 11 wholly), a flat
// load (6), an all-zero row (14), and permanent faults in consumers 9
// and 17, which fall in the second and fourth of four partitions.
func drainFixture(t *testing.T) *drainSource {
	t.Helper()
	ds := makeDataset(t, 20, 14)
	ds.Series[3].Readings[5], ds.Series[3].Readings[200] = math.NaN(), math.NaN()
	for j := range ds.Series[11].Readings {
		ds.Series[11].Readings[j] = math.NaN()
	}
	for j := range ds.Series[6].Readings {
		ds.Series[6].Readings[j] = 1.25
	}
	for j := range ds.Series[14].Readings {
		ds.Series[14].Readings[j] = 0
	}
	return &drainSource{ds: ds, fail: map[timeseries.ID]bool{ds.Series[9].ID: true, ds.Series[17].ID: true}}
}

// drainLayouts are the partition shapes the drain must handle: ascending
// ranges with exact hints (half the partitions taking rows, half
// copied), hints that overstate and understate, no hints, and
// partitions that interleave IDs.
var drainLayouts = []struct {
	name   string
	parts  func(n, max int) [][]int
	hint   func(p, count int) int
	taker  func(p int) bool
	shared bool // the drained buffer becomes the packing
}{
	{name: "exact", taker: func(p int) bool { return p%2 == 0 }, shared: true},
	{name: "hint_over", hint: func(p, count int) int {
		if p == 1 || count == 20 {
			return count + 3
		}
		return count
	}, shared: true},
	{name: "hint_under", hint: func(p, count int) int {
		if p == 0 {
			return max(0, count-5) // short even of the consumers quarantine keeps
		}
		return count
	}},
	{name: "no_hint", hint: func(int, int) int { return -1 }},
	{name: "interleaved", parts: roundRobinParts, taker: func(p int) bool { return p != 1 }},
}

// TestSimilarityDrainMatchesReference holds the drain to the reference
// at W = 1, 2 and 4 under every fail policy and partition shape, with
// the fixture's faults and, so that FailFast gets to the kernel, without
// them.
func TestSimilarityDrainMatchesReference(t *testing.T) {
	for _, l := range drainLayouts {
		for _, workers := range []int{1, 2, 4} {
			for _, policy := range []core.FailPolicy{core.FailFast, core.Quarantine, core.Repair} {
				for _, faults := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s_w%d_%v_faults=%v", l.name, workers, policy, faults), func(t *testing.T) {
						src := drainFixture(t)
						src.parts, src.hint, src.taker = l.parts, l.hint, l.taker
						if !faults {
							src.fail = nil
						}
						checkDrain(t, src, workers, policy)
						if n := src.opened.Load(); src.closes.Load() != n {
							t.Fatalf("%d cursors opened, %d closed", n, src.closes.Load())
						}
					})
				}
			}
		}
	}
}

// TestSimilarityDrainLowestPartitionErrorWins: under FailFast two
// partitions fail, and the run reports the lower one's error every time,
// however the goroutines interleave. The per-consumer tasks run their
// partitions by the same rule.
func TestSimilarityDrainLowestPartitionErrorWins(t *testing.T) {
	src := drainFixture(t)
	want := (&core.ConsumerError{ID: src.ds.Series[9].ID, Err: errDrainFault}).Error()
	for _, task := range core.Tasks {
		for i := 0; i < 50; i++ {
			_, err := Run(src, core.Spec{Task: task, K: 3, Workers: 4})
			if errText(err) != want {
				t.Fatalf("%v run %d: err %q, want %q", task, i, errText(err), want)
			}
		}
	}
}

// TestSimilarityDrainFailureStopsLaterPartitions: under FailFast the
// first consumer of partition 0 of four fails, and the partitions after
// it stop at their next consumer instead of draining their 100 each,
// for every task.
func TestSimilarityDrainFailureStopsLaterPartitions(t *testing.T) {
	ds := makeDataset(t, 400, 2)
	for _, task := range core.Tasks {
		t.Run(task.String(), func(t *testing.T) {
			src := &drainSource{ds: ds, delay: time.Millisecond, fail: map[timeseries.ID]bool{ds.Series[0].ID: true}}
			_, err := Run(src, core.Spec{Task: task, K: 3, Workers: 4})
			want := (&core.ConsumerError{ID: ds.Series[0].ID, Err: errDrainFault}).Error()
			if errText(err) != want {
				t.Fatalf("err %q, want %q", errText(err), want)
			}
			if n := src.pulled.Load(); n > 150 {
				t.Fatalf("the run pulled %d consumers of 400 after partition 0 failed at its first", n)
			}
			if n := src.opened.Load(); src.closes.Load() != n {
				t.Fatalf("%d cursors opened, %d closed", n, src.closes.Load())
			}
		})
	}
}

// TestSimilarityDrainAdoptsItsBuffer pins where the drained rows end up.
// Over ascending partitions with hints that do not understate, the
// buffer the partitions filled becomes the packing, also when
// quarantined consumers and overstated hints left slots empty, and a
// cursor that takes rows never allocates one. Otherwise the dataset's
// Flat copies.
func TestSimilarityDrainAdoptsItsBuffer(t *testing.T) {
	for _, l := range drainLayouts {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s_w%d", l.name, workers), func(t *testing.T) {
				src := drainFixture(t)
				src.parts, src.hint, src.taker = l.parts, l.hint, l.taker
				ds, err := DrainDataset(context.Background(), src, workers, core.Quarantine)
				if err != nil {
					t.Fatal(err)
				}
				m, err := ds.Flat()
				if err != nil {
					t.Fatal(err)
				}
				shared := l.shared || (workers == 1 && l.parts != nil)
				if m.Shared() != shared {
					t.Fatalf("packing shared = %v, want %v", m.Shared(), shared)
				}
				if shared && l.taker == nil {
					if n := src.fresh.Load(); n != 0 {
						t.Fatalf("cursors that take rows allocated %d", n)
					}
				}
				for i, s := range ds.Series {
					if i > 0 && ds.Series[i-1].ID >= s.ID {
						t.Fatalf("series %d: ID %d after %d", i, s.ID, ds.Series[i-1].ID)
					}
					if cap(s.Readings) != len(s.Readings) && shared {
						t.Fatalf("series %d: capacity %d beyond its %d readings", i, cap(s.Readings), len(s.Readings))
					}
				}
			})
		}
	}
}

// TestSimilarityDrainNoCursors: a source that answers with no partition
// at all is an empty dataset, which similarity refuses as the reference
// does.
func TestSimilarityDrainNoCursors(t *testing.T) {
	src := drainFixture(t)
	src.parts = func(int, int) [][]int { return nil }
	spec := core.Spec{Task: core.TaskSimilarity, K: 3, Workers: 4}
	_, err := Run(src, spec)
	_, want := core.RunReference(&timeseries.Dataset{Temperature: src.ds.Temperature}, spec)
	if !errors.Is(err, similarity.ErrTooFew) || errText(err) != errText(want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestSimilarityDrainCancel cancels a run while four slow partitions
// drain: it returns the context's error promptly, every cursor is
// closed, and no goroutine is left behind.
func TestSimilarityDrainCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	src := &drainSource{ds: makeDataset(t, 200, 2), delay: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, src, core.Spec{Task: core.TaskSimilarity, K: 3, Workers: 4})
		done <- err
	}()
	for src.opened.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return within 2s of cancellation")
	}
	if n := src.opened.Load(); src.closes.Load() != n {
		t.Fatalf("%d cursors opened, %d closed", n, src.closes.Load())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FuzzSimilarityDrainMatchesReference draws the consumer count, the row
// length, the worker count and fail policy, the partition cut points
// (or interleaved partitions), each partition's hint error and whether
// it takes rows, and every consumer's kind — random, flat, all-zero,
// partly or wholly missing, or failing — and holds the run to the
// reference bit for bit.
func FuzzSimilarityDrainMatchesReference(f *testing.F) {
	f.Add([]byte{12, 24, 3, 1, 4, 9, 0, 2, 254, 3, 1, 7, 2, 5, 6, 0, 3, 4, 1})
	f.Add([]byte{5, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 6, 7, 5, 1, 1})
	f.Add([]byte{9, 47, 2, 8, 3, 0, 0, 17, 16, 1, 2, 3, 4, 5, 6, 7, 0, 1})
	f.Add([]byte{0, 3, 3, 0})
	f.Add([]byte{1, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, workers, policy := drainCase(data)
		checkDrain(t, src, workers, policy)
	})
}

// drainCase decodes fuzz bytes into a drain test; missing bytes read 0.
func drainCase(data []byte) (*drainSource, int, core.FailPolicy) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 13
	length := 1 + next()%48
	workers := 1 + next()%4
	mode := next()
	policy := core.FailPolicy(mode % 3)
	interleave := mode&4 != 0
	cuts := make([]int, 0, workers+1)
	cuts = append(cuts, 0)
	for p := 1; p < workers; p++ {
		cuts = append(cuts, next()%(n+1))
	}
	cuts = append(cuts, n)
	slices.Sort(cuts)
	hintErr := make([]int, workers)
	taker := make([]bool, workers)
	for p := range hintErr {
		b := next()
		hintErr[p] = b%7 - 3 // -3 .. 3, and -3 reads as no hint
		taker[p] = b&8 != 0
	}

	temp := &timeseries.Temperature{Values: make([]float64, length)}
	ds := &timeseries.Dataset{Temperature: temp}
	fail := map[timeseries.ID]bool{}
	rng := rand.New(rand.NewSource(int64(next())))
	id := timeseries.ID(0)
	for i := 0; i < n; i++ {
		kind := next()
		id += timeseries.ID(1 + kind>>4)
		r := make([]float64, length)
		for j := range r {
			r[j] = float64(rng.Intn(64)) / 16
		}
		switch kind % 8 {
		case 4:
			for j := range r {
				r[j] = r[0]
			}
		case 5:
			clear(r)
		case 6:
			r[rng.Intn(length)] = math.NaN()
		case 7:
			for j := range r {
				r[j] = math.NaN()
			}
		}
		if kind&8 != 0 && kind%3 == 0 {
			fail[id] = true
		}
		ds.Series = append(ds.Series, &timeseries.Series{ID: id, Readings: r})
	}

	src := &drainSource{ds: ds, fail: fail}
	src.parts = func(n, max int) [][]int {
		if interleave {
			return roundRobinParts(n, max)
		}
		out := make([][]int, 0, max)
		for p := 0; p+1 < len(cuts) && p < max; p++ {
			var idx []int
			for i := cuts[p]; i < cuts[p+1]; i++ {
				idx = append(idx, i)
			}
			out = append(out, idx)
		}
		return out
	}
	src.hint = func(p, count int) int {
		if hintErr[p%workers] == -3 {
			return -1
		}
		return max(0, count+hintErr[p%workers])
	}
	src.taker = func(p int) bool { return taker[p%workers] }
	return src, workers, policy
}
