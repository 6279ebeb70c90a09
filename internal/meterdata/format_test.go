package meterdata

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func testDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetsEqual(t *testing.T, a, b *timeseries.Dataset) {
	t.Helper()
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series count %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i].ID != b.Series[i].ID {
			t.Fatalf("series %d ID %d vs %d", i, a.Series[i].ID, b.Series[i].ID)
		}
		if len(a.Series[i].Readings) != len(b.Series[i].Readings) {
			t.Fatalf("series %d len %d vs %d", i, len(a.Series[i].Readings), len(b.Series[i].Readings))
		}
		for j := range a.Series[i].Readings {
			x, y := a.Series[i].Readings[j], b.Series[i].Readings[j]
			if diff := x - y; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("series %d reading %d: %g vs %g", i, j, x, y)
			}
		}
	}
	if len(a.Temperature.Values) != len(b.Temperature.Values) {
		t.Fatalf("temperature len %d vs %d", len(a.Temperature.Values), len(b.Temperature.Values))
	}
	for i := range a.Temperature.Values {
		x, y := a.Temperature.Values[i], b.Temperature.Values[i]
		if diff := x - y; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("temperature %d: %g vs %g", i, x, y)
		}
	}
}

func TestRoundTripUnpartitionedReadingPerLine(t *testing.T) {
	ds := testDataset(t, 4, 5)
	dir := t.TempDir()
	src, err := WriteUnpartitioned(dir, ds, FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.DataFiles) != 1 || src.Partitioned {
		t.Fatalf("source = %+v", src)
	}
	got, err := ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestRoundTripUnpartitionedSeriesPerLine(t *testing.T) {
	ds := testDataset(t, 4, 5)
	dir := t.TempDir()
	src, err := WriteUnpartitioned(dir, ds, FormatSeriesPerLine)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestRoundTripPartitioned(t *testing.T) {
	ds := testDataset(t, 6, 3)
	dir := t.TempDir()
	src, err := WritePartitioned(dir, ds, FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.DataFiles) != 6 || !src.Partitioned {
		t.Fatalf("source = %+v", src)
	}
	got, err := ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)

	// Each partition file holds exactly one consumer.
	series, err := ReadSeriesFile(filepath.Join(dir, src.DataFiles[0]), src.Format, len(ds.Temperature.Values))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("partition holds %d series", len(series))
	}
}

func TestRoundTripGrouped(t *testing.T) {
	ds := testDataset(t, 10, 2)
	dir := t.TempDir()
	src, err := WriteGrouped(dir, ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.DataFiles) != 3 {
		t.Fatalf("files = %v", src.DataFiles)
	}
	got, err := ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)

	// No household may be scattered across files.
	seen := map[timeseries.ID]string{}
	for _, name := range src.DataFiles {
		series, err := ReadSeriesFile(filepath.Join(dir, name), FormatReadingPerLine, len(ds.Temperature.Values))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			if prev, ok := seen[s.ID]; ok {
				t.Fatalf("household %d in both %s and %s", s.ID, prev, name)
			}
			seen[s.ID] = name
			if len(s.Readings) != len(ds.Temperature.Values) {
				t.Fatalf("household %d has partial series in %s", s.ID, name)
			}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("only %d households recovered", len(seen))
	}
}

func TestWriteGroupedMoreFilesThanConsumers(t *testing.T) {
	ds := testDataset(t, 3, 1)
	src, err := WriteGrouped(t.TempDir(), ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.DataFiles) != 3 {
		t.Fatalf("files = %d, want clamped to 3", len(src.DataFiles))
	}
	if _, err := WriteGrouped(t.TempDir(), ds, 0); err == nil {
		t.Error("numFiles=0: want error")
	}
}

func TestDiscoverSource(t *testing.T) {
	ds := testDataset(t, 5, 2)
	for _, tc := range []struct {
		name  string
		write func(dir string) (*Source, error)
	}{
		{"unpart-rpl", func(d string) (*Source, error) { return WriteUnpartitioned(d, ds, FormatReadingPerLine) }},
		{"unpart-spl", func(d string) (*Source, error) { return WriteUnpartitioned(d, ds, FormatSeriesPerLine) }},
		{"part", func(d string) (*Source, error) { return WritePartitioned(d, ds, FormatReadingPerLine) }},
		{"grouped", func(d string) (*Source, error) { return WriteGrouped(d, ds, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want, err := tc.write(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DiscoverSource(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got.Format != want.Format || got.Partitioned != want.Partitioned {
				t.Errorf("discovered %+v, want %+v", got, want)
			}
			if len(got.DataFiles) != len(want.DataFiles) {
				t.Errorf("files %d vs %d", len(got.DataFiles), len(want.DataFiles))
			}
			back, err := ReadDataset(got)
			if err != nil {
				t.Fatal(err)
			}
			datasetsEqual(t, ds, back)
		})
	}
}

func TestDiscoverSourceErrors(t *testing.T) {
	if _, err := DiscoverSource(t.TempDir()); err == nil {
		t.Error("empty dir: want error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, TemperatureFile), []byte("0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverSource(dir); err == nil {
		t.Error("no data files: want error")
	}
	if _, err := DiscoverSource(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir: want error")
	}
}

func TestTotalBytes(t *testing.T) {
	ds := testDataset(t, 2, 1)
	dir := t.TempDir()
	src, err := WriteUnpartitioned(dir, ds, FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	n, err := src.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("TotalBytes = %d", n)
	}
}

func TestParseReadingLineErrors(t *testing.T) {
	for _, bad := range []string{"", "1", "1,2", "x,2,3", "1,y,3", "1,2,z"} {
		if _, err := ParseReadingLine(bad); err == nil {
			t.Errorf("ParseReadingLine(%q): want error", bad)
		}
	}
	rd, err := ParseReadingLine("42,7,1.25")
	if err != nil {
		t.Fatal(err)
	}
	if rd.ID != 42 || rd.Hour != 7 || rd.Consumption != 1.25 {
		t.Errorf("parsed = %+v", rd)
	}
}

func TestParseSeriesLineErrors(t *testing.T) {
	for _, bad := range []string{"", "1", "x,1.0", "1,abc"} {
		if _, err := ParseSeriesLine(bad); err == nil {
			t.Errorf("ParseSeriesLine(%q): want error", bad)
		}
	}
	s, err := ParseSeriesLine("5,1.0,2.5,0")
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != 5 || len(s.Readings) != 3 || s.Readings[1] != 2.5 {
		t.Errorf("parsed = %+v", s)
	}
}

func TestScanSkipsBlankLines(t *testing.T) {
	input := "1,0,1.5\n\n1,1,2.5\n"
	var rows []Reading
	err := ScanReadings(strings.NewReader(input), func(r Reading) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestReadTemperatureErrors(t *testing.T) {
	if _, err := ReadTemperature(t.TempDir()); err == nil {
		t.Error("missing file: want error")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, TemperatureFile), []byte(""), 0o644)
	if _, err := ReadTemperature(dir); err == nil {
		t.Error("empty file: want error")
	}
	os.WriteFile(filepath.Join(dir, TemperatureFile), []byte("nocomma\n"), 0o644)
	if _, err := ReadTemperature(dir); err == nil {
		t.Error("malformed row: want error")
	}
	os.WriteFile(filepath.Join(dir, TemperatureFile), []byte("0,abc\n"), 0o644)
	if _, err := ReadTemperature(dir); err == nil {
		t.Error("bad value: want error")
	}
}

func TestFormatString(t *testing.T) {
	if FormatReadingPerLine.String() != "reading-per-line" ||
		FormatSeriesPerLine.String() != "series-per-line" {
		t.Error("Format.String mismatch")
	}
	if !strings.Contains(Format(99).String(), "99") {
		t.Error("unknown format String")
	}
}

// Property: any valid dataset round-trips through every layout.
func TestRoundTripPropertyQuick(t *testing.T) {
	f := func(seedVal int64, layoutPick uint8) bool {
		rng := rand.New(rand.NewSource(seedVal))
		consumers := rng.Intn(6) + 1
		days := rng.Intn(3) + 1
		ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: seedVal})
		if err != nil {
			return false
		}
		dir, err := os.MkdirTemp("", "mdquick-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		var src *Source
		switch layoutPick % 4 {
		case 0:
			src, err = WriteUnpartitioned(dir+"/d", ds, FormatReadingPerLine)
		case 1:
			src, err = WriteUnpartitioned(dir+"/d", ds, FormatSeriesPerLine)
		case 2:
			src, err = WritePartitioned(dir+"/d", ds, FormatReadingPerLine)
		case 3:
			src, err = WriteGrouped(dir+"/d", ds, rng.Intn(consumers)+1)
		}
		if err != nil {
			return false
		}
		back, err := ReadDataset(src)
		if err != nil {
			return false
		}
		if len(back.Series) != len(ds.Series) {
			return false
		}
		for i := range ds.Series {
			if back.Series[i].ID != ds.Series[i].ID {
				return false
			}
			for j := range ds.Series[i].Readings {
				d := back.Series[i].Readings[j] - ds.Series[i].Readings[j]
				if d > 1e-4 || d < -1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
