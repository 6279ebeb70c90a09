package meterdata

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/timeseries"
)

// AppendToSource extends an on-disk source with new hourly data — the
// benchmark's future-work update workload ("adding a day's worth of new
// points to each time series", paper §3). The delta dataset must hold
// one series per existing household containing only the new readings,
// plus the matching new temperature values.
//
// Reading-per-line files support a cheap append (new rows at the end);
// series-per-line files must be rewritten, since each consumer is one
// line — the kind of asymmetry the paper anticipates for read-optimized
// layouts.
func AppendToSource(src *Source, delta *timeseries.Dataset, priorHours int) error {
	if err := appendTemperature(src.Dir, delta.Temperature); err != nil {
		return err
	}
	byID := make(map[timeseries.ID]*timeseries.Series, len(delta.Series))
	for _, s := range delta.Series {
		byID[s.ID] = s
	}
	switch src.Format {
	case FormatReadingPerLine:
		for _, rel := range src.DataFiles {
			path := filepath.Join(src.Dir, rel)
			ids, err := fileHouseholds(path, src.Format)
			if err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return fmt.Errorf("meterdata: append: %w", err)
			}
			w := bufio.NewWriter(f)
			for _, id := range ids {
				s, ok := byID[id]
				if !ok {
					_ = f.Close()
					return fmt.Errorf("meterdata: delta is missing household %d", id)
				}
				for i := range s.Readings {
					if err := writeLine(w, []int64{int64(id), int64(priorHours + i)}, s.Readings[i:i+1]); err != nil {
						_ = f.Close()
						return fmt.Errorf("meterdata: append: %w", err)
					}
				}
			}
			if err := w.Flush(); err != nil {
				_ = f.Close()
				return fmt.Errorf("meterdata: append flush: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("meterdata: append close: %w", err)
			}
		}
		return nil
	case FormatSeriesPerLine:
		// Rewrite: read everything, extend, write back.
		full, err := ReadDataset(src)
		if err != nil {
			return err
		}
		for _, s := range full.Series {
			d, ok := byID[s.ID]
			if !ok {
				return fmt.Errorf("meterdata: delta is missing household %d", s.ID)
			}
			s.Readings = append(s.Readings, d.Readings...)
		}
		if len(src.DataFiles) != 1 {
			return fmt.Errorf("meterdata: series-per-line append supports a single data file, have %d", len(src.DataFiles))
		}
		f, err := os.Create(filepath.Join(src.Dir, src.DataFiles[0]))
		if err != nil {
			return fmt.Errorf("meterdata: rewrite: %w", err)
		}
		w := bufio.NewWriterSize(f, 1<<20)
		for _, s := range full.Series {
			if err := writeSeries(w, s, FormatSeriesPerLine); err != nil {
				_ = f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			_ = f.Close()
			return fmt.Errorf("meterdata: rewrite flush: %w", err)
		}
		return f.Close()
	default:
		return fmt.Errorf("meterdata: unknown format %v", src.Format)
	}
}

// appendTemperature extends the temperature file.
func appendTemperature(dir string, delta *timeseries.Temperature) error {
	existing, err := ReadTemperature(dir)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, TemperatureFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("meterdata: append temperature: %w", err)
	}
	w := bufio.NewWriter(f)
	for i := range delta.Values {
		if err := writeLine(w, []int64{int64(len(existing.Values) + i)}, delta.Values[i:i+1]); err != nil {
			_ = f.Close()
			return fmt.Errorf("meterdata: append temperature: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("meterdata: append temperature flush: %w", err)
	}
	return f.Close()
}

// fileHouseholds returns the distinct household IDs in one data file,
// in first-appearance order.
func fileHouseholds(path string, format Format) ([]timeseries.ID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("meterdata: %w", err)
	}
	defer f.Close()
	var ids []timeseries.ID
	seen := map[timeseries.ID]bool{}
	switch format {
	case FormatReadingPerLine:
		err = ScanReadings(f, func(r Reading) error {
			if !seen[r.ID] {
				seen[r.ID] = true
				ids = append(ids, r.ID)
			}
			return nil
		})
	case FormatSeriesPerLine:
		err = ScanSeries(f, func(s *timeseries.Series) error {
			if !seen[s.ID] {
				seen[s.ID] = true
				ids = append(ids, s.ID)
			}
			return nil
		})
	default:
		err = fmt.Errorf("meterdata: unknown format %v", format)
	}
	if err != nil {
		return nil, err
	}
	return ids, nil
}
