package main

import (
	"fmt"
	"math"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// seedHouseholds sizes the seed the generator disaggregates; the
// synthetic population, not the seed, carries the scale.
const seedHouseholds = 20

// flatRate is the share of flat-load consumers, so that a store holds
// both blocks a header summary answers and blocks that must be decoded.
const flatRate = 0.1

// meterDigits is the resolution readings and temperatures are rounded
// to before any store sees them: Wh and mK. At this resolution the
// column store's quantizer and the text format's six significant digits
// both keep every bit, so one reference serves every engine.
const meterDigits = 3

// inputs is everything a run derives from its seed: the consumers'
// series over the full period and the temperature they share. The live
// store takes its sealed base and its appended hours from the same
// series.
type inputs struct {
	temp   *timeseries.Temperature
	series []*timeseries.Series

	generating time.Duration // spent inside generator.SeriesInto
}

func quantize(vals []float64) {
	pow := math.Pow(10, meterDigits)
	for i, v := range vals {
		vals[i] = math.Round(v*pow) / pow
	}
}

// makeInputs synthesizes consumers × days from the seed.
func makeInputs(seedValue int64, consumers, days int) (*inputs, error) {
	seedDS, err := seed.Generate(seed.Config{Consumers: seedHouseholds, Days: days, Seed: seedValue})
	if err != nil {
		return nil, fmt.Errorf("seed data: %w", err)
	}
	quantize(seedDS.Temperature.Values)
	cfg := generator.DefaultConfig()
	cfg.Seed = seedValue
	cfg.FlatRate = flatRate
	gen, err := generator.New(seedDS, cfg)
	if err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	in := &inputs{temp: seedDS.Temperature, series: make([]*timeseries.Series, consumers)}
	hours := len(in.temp.Values)
	// One allocation for the whole matrix keeps the heap's shape the
	// same from run to run.
	matrix := make([]float64, consumers*hours)
	for i := range in.series {
		row := matrix[i*hours : (i+1)*hours : (i+1)*hours]
		start := time.Now()
		if err := gen.SeriesInto(row, in.temp); err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
		in.generating += time.Since(start)
		quantize(row)
		in.series[i] = &timeseries.Series{ID: timeseries.ID(i + 1), Readings: row}
	}
	return in, nil
}

func (in *inputs) hours() int { return len(in.temp.Values) }

func (in *inputs) readings() int64 { return int64(len(in.series)) * int64(in.hours()) }

// prefix returns the first consumers series cut to the first hours, as
// a dataset sharing the inputs' memory.
func (in *inputs) prefix(consumers, hours int) *timeseries.Dataset {
	ds := &timeseries.Dataset{
		Series:      make([]*timeseries.Series, consumers),
		Temperature: &timeseries.Temperature{Values: in.temp.Values[:hours]},
	}
	for i := range ds.Series {
		s := in.series[i]
		ds.Series[i] = &timeseries.Series{ID: s.ID, Readings: s.Readings[:hours]}
	}
	return ds
}

// reference computes what the first refConsumers consumers' results
// must be, per task, with the library-level implementations.
func (in *inputs) reference(hours int) (map[core.Task]*core.Results, error) {
	ds := in.prefix(min(refConsumers, len(in.series)), hours)
	ref := map[core.Task]*core.Results{}
	for _, task := range []core.Task{core.TaskHistogram, core.TaskThreeLine, core.TaskPAR} {
		res, err := core.RunReference(ds, core.Spec{Task: task})
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", task, err)
		}
		ref[task] = res
	}
	return ref, nil
}
