package colstore

import (
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// encodeTestSeries builds a consumer mix that exercises every block
// shape: smooth Gaussians, bit-constant series, day-periodic tilings,
// NaN/Inf carriers, and short-tail blocks when blockRows doesn't
// divide the series length.
func encodeTestSeries(t testing.TB, consumers, n int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	out := make([][]float64, consumers)
	for c := range out {
		s := make([]float64, n)
		switch c % 5 {
		case 0: // smooth
			for i := range s {
				s[i] = math.Abs(rng.NormFloat64()) * 2
			}
		case 1: // bit-constant at a non-decimal level
			level := rng.NormFloat64()
			for i := range s {
				s[i] = level
			}
		case 2: // day-periodic tiling
			var tile [24]float64
			for h := range tile {
				tile[h] = rng.NormFloat64()
			}
			for i := range s {
				s[i] = tile[i%24]
			}
		case 3: // NaN/Inf carrier
			for i := range s {
				s[i] = rng.NormFloat64()
			}
			s[n/3] = math.NaN()
			s[2*n/3] = math.Inf(1)
		case 4: // near-constant with spikes
			for i := range s {
				s[i] = 0.5
				if i%97 == 13 {
					s[i] = rng.NormFloat64()
				}
			}
		}
		out[c] = s
	}
	return out
}

func writeSegmentWith(t testing.TB, path string, temp []float64, series [][]float64, opts ...WriterOption) {
	t.Helper()
	w, err := NewSegmentWriter(path, temp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range series {
		if err := w.Append(timeseries.ID(c+1), s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEncodeByteIdentical pins the tentpole guarantee: the
// segment file is byte-for-byte identical whatever the encoder count,
// across quantized and unquantized writes and ragged tail blocks.
func TestParallelEncodeByteIdentical(t *testing.T) {
	n := 24 * 10
	temp := make([]float64, n)
	for i := range temp {
		temp[i] = 10 + 5*math.Sin(float64(i)/24)
	}
	series := encodeTestSeries(t, 23, n)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		opts []WriterOption
	}{
		{"default", nil},
		{"quantized", []WriterOption{WithQuantize(3)}},
		{"smallblocks", []WriterOption{WithBlockRows(7)}},
	} {
		serialPath := filepath.Join(dir, tc.name+"-serial")
		writeSegmentWith(t, serialPath, temp, series, tc.opts...)
		want, err := os.ReadFile(serialPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, encoders := range []int{2, 3, 8} {
			p := filepath.Join(dir, tc.name+"-par")
			writeSegmentWith(t, p, temp, series, append(append([]WriterOption{}, tc.opts...), WithEncoders(encoders))...)
			got, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s encoders=%d: %d bytes, serial %d", tc.name, encoders, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s encoders=%d: byte %d differs (%#x vs %#x)", tc.name, encoders, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelEncodeMatchesDecode checks a pool-encoded store decodes
// back to the exact appended values (quantization applied).
func TestParallelEncodeMatchesDecode(t *testing.T) {
	n := 24 * 6
	temp := make([]float64, n)
	series := encodeTestSeries(t, 11, n)
	path := filepath.Join(t.TempDir(), "seg")
	writeSegmentWith(t, path, temp, series, WithQuantize(3), WithEncoders(4))
	st, err := openStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	p := newPager(st, 0)
	dst := make([]float64, n)
	var area []byte
	for c := range series {
		if area, err = p.readConsumer(c, dst, area); err != nil {
			t.Fatal(err)
		}
		for i, v := range series[c] {
			want := math.Round(v*1000) / 1000
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("consumer %d row %d: %v want %v", c, i, dst[i], want)
			}
		}
	}
}

// hourLanes is a stored block's lane section: the per-hour sums, and the
// 24-value tile of a BlockHourPeriodic block.
type hourLanes struct {
	Sums, Pattern [24]float64
}

// readBlockLanes decodes the lane section of block b of consumer c. No
// engine code reads the lanes any more, the writer still stores them
// (the format is v3 byte for byte), so the test that pins what is
// written keeps its own reader.
func readBlockLanes(t *testing.T, st *segStore, c, b int) (hourLanes, bool) {
	t.Helper()
	var dst hourLanes
	h := st.hdr(c, b)
	if core.BlockFlags(h.flags)&core.BlockHourLanes == 0 {
		return dst, false
	}
	area, err := st.readArea(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := h.payloadOff + h.tsLen + h.valLen
	raw := area[off : off+h.laneLen]
	sums, used, err := colcodec.DecodeValues(raw, dst.Sums[:0])
	if err != nil || len(sums) != 24 {
		t.Fatalf("consumer %d block %d: lane sums: %d values, %v", c, b, len(sums), err)
	}
	if core.BlockFlags(h.flags)&core.BlockHourPeriodic != 0 {
		pat, _, err := colcodec.DecodeValues(raw[used:], dst.Pattern[:0])
		if err != nil || len(pat) != 24 {
			t.Fatalf("consumer %d block %d: lane pattern: %d values, %v", c, b, len(pat), err)
		}
	}
	return dst, true
}

// TestSummaryLanesMatchDecodedReduction is the lane-correctness
// property test: for every stored block, across block sizes that are
// sub-day, day-aligned and misaligned, quantized and not, the stored
// lanes must equal the first-assignment per-hour reduction of the
// decoded block — and blocks without lanes must be exactly the
// NaN-bearing ones.
func TestSummaryLanesMatchDecodedReduction(t *testing.T) {
	n := 24*7 + 5 // ragged tail so the last block straddles
	temp := make([]float64, n)
	series := encodeTestSeries(t, 15, n)
	for _, blockRows := range []int{1, 7, 24, 64, DefaultBlockRows} {
		for _, quant := range []bool{false, true} {
			opts := []WriterOption{WithBlockRows(blockRows)}
			if quant {
				opts = append(opts, WithQuantize(3))
			}
			dir := t.TempDir()
			writeSegmentWith(t, filepath.Join(dir, SegmentFileName), temp, series, opts...)
			e := New(dir)
			if _, err := e.OpenExisting(); err != nil {
				t.Fatal(err)
			}
			cur, err := e.NewSummaryCursor()
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, blockRows)
			for c := 0; ; c++ {
				_, blocks, err := cur.NextSummary()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				for b, bs := range blocks {
					lanes, ok := readBlockLanes(t, e.store, c, b)
					if ok != (bs.NaNs == 0) {
						t.Fatalf("blockRows=%d quant=%v block %d: lanes=%v with %d NaNs", blockRows, quant, b, ok, bs.NaNs)
					}
					if ok != (bs.Flags&core.BlockHourLanes != 0) {
						t.Fatalf("blockRows=%d block %d: lane flag/result mismatch", blockRows, b)
					}
					if err := cur.DecodeBlock(b, dst[:bs.Count]); err != nil {
						t.Fatal(err)
					}
					blk := dst[:bs.Count]
					if !ok {
						continue
					}
					var sums [24]float64
					var seen [24]bool
					for i, v := range blk {
						h := (bs.Start + i) % 24
						if !seen[h] {
							sums[h], seen[h] = v, true
						} else {
							sums[h] += v
						}
					}
					for h := 0; h < 24; h++ {
						if math.Float64bits(lanes.Sums[h]) != math.Float64bits(sums[h]) {
							t.Fatalf("blockRows=%d quant=%v block %d lane %d: sum bits %016x want %016x",
								blockRows, quant, b, h,
								math.Float64bits(lanes.Sums[h]), math.Float64bits(sums[h]))
						}
					}
					if bs.Flags&core.BlockConstant != 0 {
						for i, v := range blk {
							if math.Float64bits(v) != math.Float64bits(blk[0]) {
								t.Fatalf("blockRows=%d block %d: constant flag on varying block (row %d)", blockRows, b, i)
							}
						}
					}
					if bs.Flags&core.BlockHourPeriodic != 0 {
						if bs.Start%24 != 0 || bs.Count%24 != 0 || bs.Count <= 24 {
							t.Fatalf("blockRows=%d block %d: periodic flag on non-aligned block", blockRows, b)
						}
						for i, v := range blk {
							if math.Float64bits(v) != math.Float64bits(lanes.Pattern[i%24]) {
								t.Fatalf("blockRows=%d block %d: pattern mismatch at row %d", blockRows, b, i)
							}
						}
					}
				}
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEncodePoolErrorSticky checks a mid-stream write failure surfaces
// on a later Append or on Close instead of hanging the pool.
func TestEncodePoolErrorSticky(t *testing.T) {
	n := 24 * 4
	temp := make([]float64, n)
	series := encodeTestSeries(t, 8, n)
	path := filepath.Join(t.TempDir(), "seg")
	w, err := NewSegmentWriter(path, temp, WithEncoders(2))
	if err != nil {
		t.Fatal(err)
	}
	// Yank the file out from under the pool's writer goroutine: the
	// buffered writes only hit the descriptor once the 1MB buffer
	// fills or Close flushes, so appends keep succeeding and the
	// failure must surface at Close.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	for c, s := range series {
		if err := w.Append(timeseries.ID(c+1), s); err != nil {
			break // acceptable: sticky error surfaced early
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close on a failed writer returned nil")
	}
}

// parTestDataset is a PAR-shaped dataset (whole days, temperatures
// aligned) holding, beside ordinary consumers, the ones the stored
// format treats specially: a bit-constant consumer (BlockConstant), an
// hour-periodic one (BlockHourPeriodic tiles), a NaN carrier (blocks
// without lanes), and one that is flat for half the year.
func parTestDataset(t *testing.T, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: 4, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ds.Series[0].Readings)
	flat, tile, nan, mixed := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	copy(nan, ds.Series[1].Readings)
	nan[13], nan[n-2] = math.NaN(), math.NaN()
	for i := range flat {
		flat[i] = 1.25
		tile[i] = 0.2 + 0.05*float64(i%24)
		mixed[i] = 0.5
	}
	copy(mixed[n/2:], ds.Series[2].Readings[n/2:])
	for i, r := range [][]float64{flat, tile, nan, mixed} {
		ds.Series = append(ds.Series, &timeseries.Series{ID: timeseries.ID(900 + i), Readings: r})
	}
	return ds
}

// pagedOver writes series against temp into a fresh segment with that
// block size and opens it paged under a budget of a few blocks.
func pagedOver(t *testing.T, temp []float64, series []*timeseries.Series, blockRows int) *Engine {
	t.Helper()
	dir := t.TempDir()
	w, err := NewSegmentWriter(filepath.Join(dir, SegmentFileName), temp, WithBlockRows(blockRows))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if err := w.Append(s.ID, s.Readings); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := pagedEngine(t, dir, 4*8*int64(min(blockRows, len(temp))))
	t.Cleanup(func() { _ = e.Release() })
	return e
}

// TestPARPagedMatchesReference holds PAR over a paged segment to
// core.RunReference bit for bit, serial and overlapped, across sub-day,
// day-aligned, misaligned and whole-series blocks. The flat, periodic
// and NaN consumers are the ones a compressed-domain PAR path used to
// rebuild from block headers; they now come through the ordinary
// cursors like everyone else, and must keep coming out right.
func TestPARPagedMatchesReference(t *testing.T) {
	ds := parTestDataset(t, 30)
	want, err := core.RunReference(ds, core.Spec{Task: core.TaskPAR})
	if err != nil {
		t.Fatal(err)
	}
	for _, blockRows := range []int{1, 7, 24, 64, 1 << 20} {
		e := pagedOver(t, ds.Temperature.Values, ds.Series, blockRows)
		for _, workers := range []int{1, 4} {
			got, err := e.Run(core.Spec{Task: core.TaskPAR, Workers: workers})
			if err != nil {
				t.Fatalf("blockRows=%d workers=%d: %v", blockRows, workers, err)
			}
			if len(got.Profiles) != len(want.Profiles) {
				t.Fatalf("blockRows=%d workers=%d: %d profiles, want %d", blockRows, workers, len(got.Profiles), len(want.Profiles))
			}
			for i, w := range want.Profiles {
				if !sameProfileBits(got.Profiles[i], w) {
					t.Fatalf("blockRows=%d workers=%d consumer %d:\n got %+v\nwant %+v", blockRows, workers, w.ID, got.Profiles[i], w)
				}
			}
			if ph := got.Phases; ph.SummaryBlocks != 0 || ph.DecodedBlocks != 0 {
				t.Fatalf("blockRows=%d workers=%d: summary/decoded blocks = %d/%d; PAR has no summary path", blockRows, workers, ph.SummaryBlocks, ph.DecodedBlocks)
			}
		}
	}
}

// sameProfileBits compares two PAR results bit for bit; the NaN carrier
// legitimately produces NaNs, which == cannot accept.
func sameProfileBits(a, b *par.Result) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	if a.ID != b.ID {
		return false
	}
	for h := range a.Hours {
		am, bm := a.Hours[h], b.Hours[h]
		if !same(a.Profile[h], b.Profile[h]) || am.Fallback != bm.Fallback || !same(am.TempCoef, bm.TempCoef) ||
			!same(am.Intercept, bm.Intercept) || !same(am.R2, bm.R2) || len(am.ARCoef) != len(bm.ARCoef) {
			return false
		}
		for j := range am.ARCoef {
			if !same(am.ARCoef[j], bm.ARCoef[j]) {
				return false
			}
		}
	}
	return true
}

// TestPARPagedErrorsMatchReference checks that what PAR refuses, it
// refuses in the reference's words whatever the block size and worker
// count: a year too short for the order, and series that are not whole
// days. Every consumer of a segment has the segment's length, so every
// one is refused; a serial run must report the first, an overlapped run
// reports whichever its workers reach first.
func TestPARPagedErrorsMatchReference(t *testing.T) {
	short := parTestDataset(t, 7)
	ragged := parTestDataset(t, 10)
	ragged.Temperature.Values = ragged.Temperature.Values[:10*24-5]
	for _, s := range ragged.Series {
		s.Readings = s.Readings[:10*24-5]
	}
	for name, ds := range map[string]*timeseries.Dataset{"short": short, "ragged": ragged} {
		var first string
		refusals := map[string]bool{}
		for i, s := range ds.Series {
			one := &timeseries.Dataset{Series: []*timeseries.Series{s}, Temperature: ds.Temperature}
			_, err := core.RunReference(one, core.Spec{Task: core.TaskPAR})
			if err == nil {
				t.Fatalf("%s: the reference accepted consumer %d", name, s.ID)
			}
			if i == 0 {
				first = err.Error()
			}
			refusals[err.Error()] = true
		}
		for _, blockRows := range []int{1, 7, 24, 64, 1 << 20} {
			e := pagedOver(t, ds.Temperature.Values, ds.Series, blockRows)
			for _, workers := range []int{1, 4} {
				_, err := e.Run(core.Spec{Task: core.TaskPAR, Workers: workers})
				if err == nil || !refusals[err.Error()] || (workers == 1 && err.Error() != first) {
					t.Fatalf("%s blockRows=%d workers=%d: error %v, want %q", name, blockRows, workers, err, first)
				}
			}
		}
	}
}

// TestEncodersMatchSeedDataset cross-checks the pool against the
// colstore Load path used everywhere else in the suite.
func TestEncodersMatchSeedDataset(t *testing.T) {
	ds, err := seed.Generate(seed.Config{Consumers: 9, Days: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, opts := range map[string][]WriterOption{
		"serial": nil,
		"pool":   {WithEncoders(3)},
	} {
		w, err := NewSegmentWriter(filepath.Join(dir, name), ds.Temperature.Values, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ds.Series {
			if err := w.Append(s.ID, s.Readings); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	serial, err := os.ReadFile(filepath.Join(dir, "serial"))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := os.ReadFile(filepath.Join(dir, "pool"))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(pool) {
		t.Fatalf("sizes differ: %d vs %d", len(serial), len(pool))
	}
	for i := range serial {
		if serial[i] != pool[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}
