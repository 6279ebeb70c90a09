// Package meterdata defines the on-disk representations of smart meter
// data used throughout the benchmark and implements readers and writers
// for each.
//
// The paper evaluates three text formats on the cluster (§5.4.2) plus a
// partitioned (file-per-consumer) layout on the single server (§5.3.1):
//
//   - FormatReadingPerLine ("first data format"): one smart meter reading
//     per line — household, hour, consumption. The most flexible layout,
//     but reconstructing a household's series requires grouping (a
//     reduce/shuffle step on a cluster).
//   - FormatSeriesPerLine ("second data format"): one household per line,
//     all its readings inline. Grouping is free, so map-only jobs
//     suffice.
//   - grouped files ("third data format"): many files, one reading per
//     line, with each household fully contained in one file.
//   - partitioned: one file per consumer (the layout Matlab prefers).
//
// Temperature is stored once per directory in temperature.csv, since all
// consumers in the paper's data share one city's weather.
package meterdata

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Format identifies how consumption rows are laid out in a data file.
type Format int

const (
	// FormatReadingPerLine stores "household,hour,consumption" rows.
	FormatReadingPerLine Format = iota
	// FormatSeriesPerLine stores "household,r0,r1,...,rN" rows.
	FormatSeriesPerLine
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatReadingPerLine:
		return "reading-per-line"
	case FormatSeriesPerLine:
		return "series-per-line"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// TemperatureFile is the per-directory temperature file name.
const TemperatureFile = "temperature.csv"

// DataFile is the single-file (unpartitioned) data file name.
const DataFile = "data.csv"

// Source describes a data directory an engine can load from.
type Source struct {
	// Dir is the directory containing the files.
	Dir string
	// Format is the row layout of the consumption files.
	Format Format
	// Partitioned is true when each consumer lives in its own file
	// (consumer_<id>.csv); false when all rows live in DataFile or in
	// grouped files.
	Partitioned bool
	// DataFiles lists the consumption files, relative to Dir.
	DataFiles []string
}

// TemperaturePath returns the absolute path of the temperature file.
func (s *Source) TemperaturePath() string { return filepath.Join(s.Dir, TemperatureFile) }

// Paths returns the absolute paths of all consumption files.
func (s *Source) Paths() []string {
	out := make([]string, len(s.DataFiles))
	for i, f := range s.DataFiles {
		out[i] = filepath.Join(s.Dir, f)
	}
	return out
}

// TotalBytes returns the summed size of all consumption files plus the
// temperature file, for throughput reporting.
func (s *Source) TotalBytes() (int64, error) {
	var total int64
	files := append(s.Paths(), s.TemperaturePath())
	for _, p := range files {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, fmt.Errorf("meterdata: stat %s: %w", p, err)
		}
		total += fi.Size()
	}
	return total, nil
}

// consumerFileName returns the partitioned file name for one household.
func consumerFileName(id timeseries.ID) string {
	return fmt.Sprintf("consumer_%d.csv", id)
}

// groupFileName returns the grouped-layout file name.
func groupFileName(i int) string { return fmt.Sprintf("group_%05d.csv", i) }

// WriteTemperature writes the shared temperature series as
// "hour,temperature" rows.
func WriteTemperature(dir string, temp *timeseries.Temperature) error {
	f, err := os.Create(filepath.Join(dir, TemperatureFile))
	if err != nil {
		return fmt.Errorf("meterdata: %w", err)
	}
	w := bufio.NewWriter(f)
	for i := range temp.Values {
		if err := writeLine(w, []int64{int64(i)}, temp.Values[i:i+1]); err != nil {
			_ = f.Close()
			return fmt.Errorf("meterdata: write temperature: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("meterdata: flush temperature: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("meterdata: close temperature: %w", err)
	}
	return nil
}

// ReadTemperature reads a temperature file written by WriteTemperature.
func ReadTemperature(dir string) (*timeseries.Temperature, error) {
	path := filepath.Join(dir, TemperatureFile)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	defer f.Close()
	var values []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		comma := strings.IndexByte(text, ',')
		if comma < 0 {
			return nil, fmt.Errorf("meterdata: %s:%d: missing comma", path, line)
		}
		v, err := strconv.ParseFloat(text[comma+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("meterdata: %s:%d: %w", path, line, err)
		}
		values = append(values, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("meterdata: scan %s: %w", path, err)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("meterdata: %s is empty", path)
	}
	return &timeseries.Temperature{Values: values}, nil
}

// WriteUnpartitioned writes the whole dataset into one DataFile in the
// given format plus the temperature file, and returns the Source.
func WriteUnpartitioned(dir string, ds *timeseries.Dataset, format Format) (*Source, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	if err := WriteTemperature(dir, ds.Temperature); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, DataFile))
	if err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range ds.Series {
		if err := writeSeries(w, s, format); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("meterdata: flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("meterdata: close: %w", err)
	}
	return &Source{Dir: dir, Format: format, DataFiles: []string{DataFile}}, nil
}

// WritePartitioned writes one file per consumer (reading-per-line rows
// without the household column would lose the ID on re-read, so rows keep
// the full format) plus the temperature file.
func WritePartitioned(dir string, ds *timeseries.Dataset, format Format) (*Source, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	if err := WriteTemperature(dir, ds.Temperature); err != nil {
		return nil, err
	}
	files := make([]string, 0, len(ds.Series))
	for _, s := range ds.Series {
		name := consumerFileName(s.ID)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("meterdata: %w", err)
		}
		w := bufio.NewWriterSize(f, 1<<18)
		if err := writeSeries(w, s, format); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := w.Flush(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("meterdata: flush %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("meterdata: close %s: %w", name, err)
		}
		files = append(files, name)
	}
	return &Source{Dir: dir, Format: format, Partitioned: true, DataFiles: files}, nil
}

// WriteGrouped writes the paper's third data format: numFiles files, one
// reading per line, each household fully contained in a single file.
func WriteGrouped(dir string, ds *timeseries.Dataset, numFiles int) (*Source, error) {
	if numFiles <= 0 {
		return nil, fmt.Errorf("meterdata: numFiles must be positive, got %d", numFiles)
	}
	if numFiles > len(ds.Series) {
		numFiles = len(ds.Series)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	if err := WriteTemperature(dir, ds.Temperature); err != nil {
		return nil, err
	}
	files := make([]string, 0, numFiles)
	per := (len(ds.Series) + numFiles - 1) / numFiles
	for g := 0; g < numFiles; g++ {
		lo := g * per
		hi := lo + per
		if hi > len(ds.Series) {
			hi = len(ds.Series)
		}
		if lo >= hi {
			break
		}
		name := groupFileName(g)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("meterdata: %w", err)
		}
		w := bufio.NewWriterSize(f, 1<<18)
		for _, s := range ds.Series[lo:hi] {
			if err := writeSeries(w, s, FormatReadingPerLine); err != nil {
				_ = f.Close()
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("meterdata: flush %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("meterdata: close %s: %w", name, err)
		}
		files = append(files, name)
	}
	return &Source{Dir: dir, Format: FormatReadingPerLine, DataFiles: files}, nil
}

func writeSeries(w *bufio.Writer, s *timeseries.Series, format Format) error {
	var err error
	switch format {
	case FormatReadingPerLine:
		for h := 0; h < len(s.Readings) && err == nil; h++ {
			err = writeLine(w, []int64{int64(s.ID), int64(h)}, s.Readings[h:h+1])
		}
	case FormatSeriesPerLine:
		err = writeLine(w, []int64{int64(s.ID)}, s.Readings)
	default:
		return fmt.Errorf("meterdata: unknown format %v", format)
	}
	if err != nil {
		return fmt.Errorf("meterdata: write consumer %d: %w", s.ID, err)
	}
	return nil
}

// fieldRoom bounds the text of one field and its comma: an int64 takes
// at most 20 bytes ("-9223372036854775808"), a value at most 13
// ("-1.23457e+308").
const fieldRoom = 32

// writeLine writes one text line, the integers and then the values
// separated by commas, each value as strconv.FormatFloat(v, 'g', 6, 64)
// spells it. Every data and temperature writer writes its lines through
// it. The line is appended straight into the writer's free space, which
// the writer is handed and flushed whenever less than a field's room is
// left, so a line of any length costs no allocation.
func writeLine(w *bufio.Writer, ints []int64, vals []float64) error {
	b := w.AvailableBuffer()
	var err error
	for i, n := range ints {
		if b, err = reserve(w, b); err != nil {
			return err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	for _, v := range vals {
		if b, err = reserve(w, b); err != nil {
			return err
		}
		b = append(b, ',')
		b = strconv.AppendFloat(b, v, 'g', 6, 64)
	}
	if b, err = reserve(w, b); err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// reserve returns b while it has fieldRoom bytes to spare; otherwise it
// writes b, flushes the writer and returns the writer's free space.
func reserve(w *bufio.Writer, b []byte) ([]byte, error) {
	if cap(b)-len(b) >= fieldRoom {
		return b, nil
	}
	if _, err := w.Write(b); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return w.AvailableBuffer(), nil
}

// DiscoverSource inspects a directory previously written by one of the
// writers and reconstructs its Source description.
func DiscoverSource(dir string) (*Source, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	src := &Source{Dir: dir}
	sawTemp := false
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == TemperatureFile:
			sawTemp = true
		case name == DataFile || strings.HasPrefix(name, "group_"),
			strings.HasPrefix(name, "consumer_"):
			src.DataFiles = append(src.DataFiles, name)
			if strings.HasPrefix(name, "consumer_") {
				src.Partitioned = true
			}
		}
	}
	if !sawTemp {
		return nil, fmt.Errorf("meterdata: %s has no %s", dir, TemperatureFile)
	}
	if len(src.DataFiles) == 0 {
		return nil, fmt.Errorf("meterdata: %s has no data files", dir)
	}
	sort.Strings(src.DataFiles)
	// Sniff the format from the first data line of the first file.
	f, err := os.Open(filepath.Join(dir, src.DataFiles[0]))
	if err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if sc.Scan() {
		if strings.Count(sc.Text(), ",") > 2 {
			src.Format = FormatSeriesPerLine
		} else {
			src.Format = FormatReadingPerLine
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("meterdata: sniff format: %w", err)
	}
	return src, nil
}
