package meterdata

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// hostileYear is the temperature year of the hostile-input tests: short,
// so that any allocation sized by a row's hour rather than by the year
// stands out.
const hostileYear = 48

// writeHostileSource writes a temperature year of hostileYear hours and
// data as the one data file of a source in the given format.
func writeHostileSource(t testing.TB, data []byte, format Format) *Source {
	t.Helper()
	dir := t.TempDir()
	temp := &timeseries.Temperature{Values: make([]float64, hostileYear)}
	if err := WriteTemperature(dir, temp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, DataFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return &Source{Dir: dir, Format: format, DataFiles: []string{DataFile}}
}

// textReaders are the two readers that assemble reading-per-line rows
// into series.
var textReaders = []struct {
	name string
	read func(src *Source) ([]*timeseries.Series, error)
}{
	{"ReadDataset", func(src *Source) ([]*timeseries.Series, error) {
		ds, err := ReadDataset(src)
		if err != nil {
			return nil, err
		}
		return ds.Series, nil
	}},
	{"ReadSeriesFile", func(src *Source) ([]*timeseries.Series, error) {
		return ReadSeriesFile(src.Paths()[0], src.Format, hostileYear)
	}},
}

// TestReadersRejectHostileHours feeds both readers a reading-per-line
// row whose hour lies outside the temperature year. Each must return an
// error: no panic (a negative hour once indexed the series at -1), no
// allocation sized by the hour (4·10⁹ once grew a 32 GB slice), and no
// hour wrapped into the year (2^32+1 once read as hour 1 where int is
// 32 bits).
func TestReadersRejectHostileHours(t *testing.T) {
	for _, r := range textReaders {
		t.Run(r.name, func(t *testing.T) {
			for _, hour := range []int64{-1, hostileYear, 4e9, 1<<32 + 1} {
				src := writeHostileSource(t, []byte(fmt.Sprintf("1,0,0.5\n1,%d,0.5\n", hour)), FormatReadingPerLine)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("hour %d: panic: %v", hour, p)
						}
					}()
					_, err = r.read(src)
					return err
				}()
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("hour %d: want an error", hour)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("hour %d: allocated %d bytes for a %d-hour year", hour, grew, hostileYear)
				}
			}
		})
	}
}

// checkParseHour holds the hour parseReadingBytes returns for a row to
// the hour field strconv parses: a row's hour is never another hour.
func checkParseHour(t *testing.T, line []byte) {
	t.Helper()
	r, err := parseReadingBytes(line)
	if err != nil {
		return
	}
	field := bytes.Split(line, []byte{','})[1]
	if hour, err := strconv.ParseInt(string(field), 10, 64); err != nil || int64(r.Hour) != hour {
		t.Fatalf("parseReadingBytes(%q) read hour %d; strconv = %d, %v", line, r.Hour, hour, err)
	}
}

// checkParseFloat holds parseFloatBytes to strconv.ParseFloat: the same
// verdict and the same bits.
func checkParseFloat(t *testing.T, b []byte) {
	t.Helper()
	got, gotErr := parseFloatBytes(b)
	want, wantErr := strconv.ParseFloat(string(b), 64)
	if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseFloatBytes(%q) = %v, %v; strconv = %v, %v", b, got, gotErr, want, wantErr)
	}
}

// FuzzReadingRows writes arbitrary bytes as a reading-per-line and as a
// series-per-line data file and reads them through both scanners and
// both readers. Each returns data or an error, never a panic; every
// series assembled from readings spans exactly the temperature year;
// series come back in ascending household order; and every field of the
// input parses to strconv's bits.
func FuzzReadingRows(f *testing.F) {
	for _, seed := range []string{
		"1,0,0.5\n1,1,0.25\n2,0,1\n",
		"1,0,0.5\n1,-1,0.5\n",
		"1,4000000000,0\n",
		"7,0.5,1.25,-0,1e3\n3,NaN,-Inf\n",
		"1,,\n\n,1,2\n",
		"9223372036854775808,0,0.1\n-5,47,+.5\n",
		"1,0,0.0000000000000000000001\n1,1,9007199254740993\n",
		"7,4294967297,1.5\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseFloat(t, data)
		for _, field := range bytes.FieldsFunc(data, func(r rune) bool { return r == ',' || r == '\n' }) {
			checkParseFloat(t, field)
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			checkParseHour(t, line)
		}
		_ = ScanReadings(bytes.NewReader(data), func(Reading) error { return nil })
		_ = ScanSeries(bytes.NewReader(data), func(*timeseries.Series) error { return nil })

		for _, format := range []Format{FormatReadingPerLine, FormatSeriesPerLine} {
			src := writeHostileSource(t, data, format)
			for _, r := range textReaders {
				series, err := r.read(src)
				if err != nil {
					continue
				}
				for i, s := range series {
					if format == FormatReadingPerLine && len(s.Readings) != hostileYear {
						t.Fatalf("%s %v: household %d has %d readings, want %d", r.name, format, s.ID, len(s.Readings), hostileYear)
					}
					if i > 0 && series[i-1].ID >= s.ID {
						t.Fatalf("%s %v: households %d, %d out of order", r.name, format, series[i-1].ID, s.ID)
					}
				}
			}
		}
	})
}
