package meterdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// The fmt writers the text writers replaced, kept as their oracle: every
// file the package writes must hold exactly the bytes these would.

func oracleFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func oracleSeries(w *bytes.Buffer, s *timeseries.Series, format Format) {
	switch format {
	case FormatReadingPerLine:
		for h, r := range s.Readings {
			fmt.Fprintf(w, "%d,%d,%s\n", s.ID, h, oracleFloat(r))
		}
	case FormatSeriesPerLine:
		var sb strings.Builder
		sb.WriteString(strconv.FormatInt(int64(s.ID), 10))
		for _, r := range s.Readings {
			sb.WriteByte(',')
			sb.WriteString(oracleFloat(r))
		}
		sb.WriteByte('\n')
		w.WriteString(sb.String())
	}
}

// oracleTemperature writes temperature rows from hour first on.
func oracleTemperature(w *bytes.Buffer, first int, values []float64) {
	for i, v := range values {
		fmt.Fprintf(w, "%d,%s\n", first+i, oracleFloat(v))
	}
}

// oracleAppend writes the rows AppendToSource adds to a reading-per-line
// file for one household.
func oracleAppend(w *bytes.Buffer, id timeseries.ID, priorHours int, readings []float64) {
	for i, r := range readings {
		fmt.Fprintf(w, "%d,%d,%s\n", id, priorHours+i, oracleFloat(r))
	}
}

// edgeValues are the values whose spelling is easiest to get wrong: the
// IEEE specials, signed zero, denormals, the points where 'g' switches
// to an exponent (1e-5, 1e21 and every power past six digits), and
// values that round across a digit at the sixth significant one.
var edgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64,
	1e21, 1e20, 1e-7, 1e-5, 1e-4, 0.0001, 0.00001, 9.99999e-5, 9.999995e-5,
	999999, 999999.4, 999999.5, -999999.5, 9999995, 1e6, math.Nextafter(1e6, 0),
	123456.5, 1234565, 123456.45, 0.1, 0.5, 1.5, 2.5e-5, 0.000123456789,
	123456789, -123.4565, 1.0000005, 0.9999995, 100000, 1e5 + 0.5,
}

// edgeDataset holds every edge value in every household and a fill of
// random values across the whole exponent range.
func edgeDataset(ids []timeseries.ID, hours int, seed int64) *timeseries.Dataset {
	rng := rand.New(rand.NewSource(seed))
	value := func(i int) float64 {
		if i < len(edgeValues) {
			return edgeValues[i]
		}
		v := rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	ds := &timeseries.Dataset{Temperature: &timeseries.Temperature{Values: make([]float64, hours)}}
	for h := range ds.Temperature.Values {
		ds.Temperature.Values[h] = value((h + 3) % (hours + 1))
	}
	for n, id := range ids {
		s := &timeseries.Series{ID: id, Readings: make([]float64, hours)}
		for h := range s.Readings {
			s.Readings[h] = value((h + n) % hours)
		}
		ds.Series = append(ds.Series, s)
	}
	return ds
}

func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes, oracle %d; first difference at byte %d: %q vs %q",
			what, len(got), len(want), i, got[max(i-20, 0):min(i+20, len(got))], want[max(i-20, 0):min(i+20, len(want))])
	}
}

// checkRowsParse reads every row of a reading-per-line file back through
// ScanReadings: the row's household and hour are the series', and its
// value has the bits of the oracle spelling parsed by strconv.
func checkRowsParse(t *testing.T, data []byte, ds *timeseries.Dataset, firstHour int) {
	t.Helper()
	rows := 0
	byID := map[timeseries.ID][]float64{}
	for _, s := range ds.Series {
		byID[s.ID] = s.Readings
	}
	err := ScanReadings(bytes.NewReader(data), func(r Reading) error {
		readings, ok := byID[r.ID]
		h := r.Hour - firstHour
		if !ok || h < 0 || h >= len(readings) {
			return fmt.Errorf("row %d: household %d hour %d not written", rows, r.ID, r.Hour)
		}
		want, err := strconv.ParseFloat(oracleFloat(readings[h]), 64)
		if err != nil {
			return err
		}
		if math.Float64bits(r.Consumption) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(r.Consumption)) {
			return fmt.Errorf("row %d: household %d hour %d reads %v, want %v", rows, r.ID, r.Hour, r.Consumption, want)
		}
		rows++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ds.Series) * len(ds.Series[0].Readings); rows != want {
		t.Fatalf("%d rows parsed, %d written", rows, want)
	}
}

// TestWritersMatchFmtOracle holds the unpartitioned, partitioned and
// grouped writers, in both formats, and the temperature file to the fmt
// oracle byte for byte, on households whose IDs run up to MaxInt64 and
// whose readings hold every edge value.
func TestWritersMatchFmtOracle(t *testing.T) {
	ids := []timeseries.ID{1, 42, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	ds := edgeDataset(ids, 24*40, 5)
	var temp bytes.Buffer
	oracleTemperature(&temp, 0, ds.Temperature.Values)
	for _, format := range []Format{FormatReadingPerLine, FormatSeriesPerLine} {
		t.Run(format.String(), func(t *testing.T) {
			var want bytes.Buffer
			for _, s := range ds.Series {
				oracleSeries(&want, s, format)
			}
			dir := t.TempDir()
			src, err := WriteUnpartitioned(dir, ds, format)
			if err != nil {
				t.Fatal(err)
			}
			got := fileBytes(t, filepath.Join(dir, src.DataFiles[0]))
			checkBytes(t, "data file", got, want.Bytes())
			checkBytes(t, "temperature file", fileBytes(t, src.TemperaturePath()), temp.Bytes())
			if format == FormatReadingPerLine {
				checkRowsParse(t, got, ds, 0)
			}

			part, err := WritePartitioned(t.TempDir(), ds, format)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range ds.Series {
				var one bytes.Buffer
				oracleSeries(&one, s, format)
				checkBytes(t, part.DataFiles[i], fileBytes(t, filepath.Join(part.Dir, part.DataFiles[i])), one.Bytes())
			}
		})
	}
	grouped, err := WriteGrouped(t.TempDir(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range grouped.DataFiles {
		all = append(all, fileBytes(t, filepath.Join(grouped.Dir, name))...)
	}
	var want bytes.Buffer
	for _, s := range ds.Series {
		oracleSeries(&want, s, FormatReadingPerLine)
	}
	checkBytes(t, "grouped files", all, want.Bytes())
}

// TestAppendMatchesFmtOracle holds AppendToSource to the oracle: a
// reading-per-line file gains the oracle's rows after its own, the
// temperature file the oracle's rows from the next hour on, and a
// series-per-line file is rewritten as the oracle writes the extended
// series.
func TestAppendMatchesFmtOracle(t *testing.T) {
	ids := []timeseries.ID{3, 1 << 33, math.MaxInt64}
	const base, extra = 48, 24
	ds := edgeDataset(ids, base, 11)
	delta := edgeDataset(ids, extra, 12)
	for _, format := range []Format{FormatReadingPerLine, FormatSeriesPerLine} {
		t.Run(format.String(), func(t *testing.T) {
			dir := t.TempDir()
			src, err := WriteUnpartitioned(dir, ds, format)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, src.DataFiles[0])
			before := fileBytes(t, path)
			beforeTemp := fileBytes(t, src.TemperaturePath())
			if err := AppendToSource(src, delta, base); err != nil {
				t.Fatal(err)
			}
			want := bytes.NewBuffer(append([]byte(nil), before...))
			if format == FormatReadingPerLine {
				for _, s := range delta.Series {
					oracleAppend(want, s.ID, base, s.Readings)
				}
				got := fileBytes(t, path)
				checkRowsParse(t, got[len(before):], delta, base)
			} else {
				// The rewrite writes the series read back from the file,
				// so each value is the oracle spelling parsed once.
				want.Reset()
				for i, s := range ds.Series {
					ext := &timeseries.Series{ID: s.ID}
					for _, v := range s.Readings {
						p, err := strconv.ParseFloat(oracleFloat(v), 64)
						if err != nil {
							t.Fatal(err)
						}
						ext.Readings = append(ext.Readings, p)
					}
					ext.Readings = append(ext.Readings, delta.Series[i].Readings...)
					oracleSeries(want, ext, FormatSeriesPerLine)
				}
			}
			checkBytes(t, "data file", fileBytes(t, path), want.Bytes())
			wantTemp := bytes.NewBuffer(append([]byte(nil), beforeTemp...))
			oracleTemperature(wantTemp, base, delta.Temperature.Values)
			checkBytes(t, "temperature file", fileBytes(t, src.TemperaturePath()), wantTemp.Bytes())
		})
	}
}

// TestWriteLineAtEveryBufferOffset starts a reading row and a long
// series row at every offset of a small writer's buffer, so each field
// lands on both sides of the point where writeLine hands the buffer
// over.
func TestWriteLineAtEveryBufferOffset(t *testing.T) {
	series := append([]float64(nil), edgeValues...)
	for pad := 0; pad < 96; pad++ {
		var got bytes.Buffer
		w := bufio.NewWriterSize(&got, 96)
		w.WriteString(strings.Repeat("x", pad))
		if err := writeLine(w, []int64{math.MinInt64, math.MaxInt64}, []float64{-math.MaxFloat64}); err != nil {
			t.Fatal(err)
		}
		if err := writeLine(w, []int64{math.MaxInt64}, series); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		want.WriteString(strings.Repeat("x", pad))
		fmt.Fprintf(&want, "%d,%d,%s\n", int64(math.MinInt64), int64(math.MaxInt64), oracleFloat(-math.MaxFloat64))
		oracleSeries(&want, &timeseries.Series{ID: math.MaxInt64, Readings: series}, FormatSeriesPerLine)
		checkBytes(t, fmt.Sprintf("pad %d", pad), got.Bytes(), want.Bytes())
	}
}

// TestWriteLineAllocs pins the point of writeLine: a row costs no
// allocation, however long.
func TestWriteLineAllocs(t *testing.T) {
	w := bufio.NewWriterSize(io.Discard, 4096)
	row := edgeValues[:1]
	long := make([]float64, 8760)
	for i := range long {
		long[i] = float64(i) / 7
	}
	for name, vals := range map[string][]float64{"row": row, "series": long} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := writeLine(w, []int64{math.MaxInt64, 8759}, vals); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per line", name, allocs)
		}
	}
}

// FuzzWriteLineMatchesFmt holds writeLine to the fmt oracle for any
// household, hour and value, from any offset of a small buffer, as a
// reading row and as a three-value series row; the reading row must
// parse back through ScanReadings to the oracle spelling's bits.
func FuzzWriteLineMatchesFmt(f *testing.F) {
	f.Add(int64(1), int64(0), 0.5, uint8(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), math.Inf(-1), uint8(63))
	f.Add(int64(-7), int64(8759), math.NaN(), uint8(40))
	f.Add(int64(12), int64(3), 5e-324, uint8(17))
	f.Add(int64(12), int64(3), 999999.5, uint8(31))
	f.Add(int64(0), int64(1<<40), 1e21, uint8(33))
	f.Fuzz(func(t *testing.T, id, hour int64, v float64, pad uint8) {
		var got bytes.Buffer
		w := bufio.NewWriterSize(&got, 64)
		w.WriteString(strings.Repeat("x", int(pad%64)))
		start := int(pad % 64)
		if err := writeLine(w, []int64{id, hour}, []float64{v}); err != nil {
			t.Fatal(err)
		}
		rowEnd := w.Buffered() + got.Len()
		if err := writeLine(w, []int64{id}, []float64{v, -v, v / 3}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		row := fmt.Sprintf("%d,%d,%s\n", id, hour, oracleFloat(v))
		want := strings.Repeat("x", start) + row +
			fmt.Sprintf("%d,%s,%s,%s\n", id, oracleFloat(v), oracleFloat(-v), oracleFloat(v/3))
		checkBytes(t, "lines", got.Bytes(), []byte(want))
		if int64(int(hour)) != hour {
			return // the readers refuse an hour wider than int
		}
		wantV, err := strconv.ParseFloat(oracleFloat(v), 64)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		err = ScanReadings(bytes.NewReader(got.Bytes()[start:rowEnd]), func(r Reading) error {
			n++
			if r.ID != timeseries.ID(id) || int64(r.Hour) != hour ||
				math.Float64bits(r.Consumption) != math.Float64bits(wantV) && !(math.IsNaN(wantV) && math.IsNaN(r.Consumption)) {
				return fmt.Errorf("row %q reads %+v", row, r)
			}
			return nil
		})
		if err != nil || n != 1 {
			t.Fatalf("row %q: %d rows, %v", row, n, err)
		}
	})
}
