package meterdata

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Reading is one parsed reading-per-line row.
type Reading struct {
	ID          timeseries.ID
	Hour        int
	Consumption float64
}

// ParseReadingLine parses one "household,hour,consumption" row.
func ParseReadingLine(line string) (Reading, error) {
	return parseReadingBytes([]byte(line))
}

// ParseSeriesLine parses one "household,r0,r1,..." row.
func ParseSeriesLine(line string) (*timeseries.Series, error) {
	return parseSeriesBytes([]byte(line))
}

// ScanReadings streams reading-per-line rows from r, invoking fn for
// each. The inner loop parses the scanner's byte slice in place (see
// parse.go), so a full file scan allocates nothing per row.
func ScanReadings(r io.Reader, fn func(Reading) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rd, err := parseReadingBytes(line)
		if err != nil {
			return err
		}
		if err := fn(rd); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ScanSeries streams series-per-line rows from r, invoking fn for
// each. Per row it allocates only the Series and its readings buffer —
// the two values the callback retains.
func ScanSeries(r io.Reader, fn func(*timeseries.Series) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		s, err := parseSeriesBytes(line)
		if err != nil {
			return err
		}
		if err := fn(s); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ReadDataset loads an entire Source into memory as a Dataset, with
// series ordered by ascending household ID. Reading-per-line rows are
// aligned to the temperature year through an Assembler, which rejects
// an hour outside it.
func ReadDataset(src *Source) (*timeseries.Dataset, error) {
	temp, err := ReadTemperature(src.Dir)
	if err != nil {
		return nil, err
	}
	a := NewAssembler(len(temp.Values))
	for _, path := range src.Paths() {
		if err := readFile(path, src.Format, a); err != nil {
			return nil, err
		}
	}
	if a.Len() == 0 {
		return nil, fmt.Errorf("meterdata: source %s contains no series", src.Dir)
	}
	return &timeseries.Dataset{Series: a.Series(), Temperature: temp}, nil
}

// ReadSeriesFile reads one partitioned consumer file (or one grouped
// file) and returns the series it contains, ordered by household ID.
// tempLen is the length of the source's temperature year, which bounds
// the hours of reading-per-line rows.
func ReadSeriesFile(path string, format Format, tempLen int) ([]*timeseries.Series, error) {
	a := NewAssembler(tempLen)
	if err := readFile(path, format, a); err != nil {
		return nil, err
	}
	return a.Series(), nil
}

// readFile adds every row of one data file to a.
func readFile(path string, format Format, a *Assembler) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("meterdata: %w", err)
	}
	defer f.Close()
	switch format {
	case FormatReadingPerLine:
		err = ScanReadings(f, a.Add)
	case FormatSeriesPerLine:
		err = ScanSeries(f, func(s *timeseries.Series) error {
			a.Put(s)
			return nil
		})
	default:
		err = fmt.Errorf("meterdata: unknown format %v", format)
	}
	if err != nil {
		return fmt.Errorf("meterdata: read %s: %w", path, err)
	}
	return nil
}
