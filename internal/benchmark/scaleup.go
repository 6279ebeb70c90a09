package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// scaleupSeedConsumers sizes the seed the generator disaggregates. It
// stays tiny — the whole point is that the synthetic population, not
// the seed, carries the scale.
const scaleupSeedConsumers = 20

// Scaleup extends Figures 7/8 past what fits in memory: consumers are
// streamed straight into a compressed column-store segment file (never
// materializing the raw matrix), then the histogram and 3-line tasks
// run over the paged engine under a fixed decoded-block budget — by
// default a quarter of the raw matrix size, or Options.MemBudget when
// set. The report records the compression ratio and the throughput the
// budgeted engine sustains, which is the claim the paper's scale-up
// experiments make for System C.
func Scaleup(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	days := opts.Scale.Days
	rep := &Report{
		ID:    "scaleup",
		Title: fmt.Sprintf("Out-of-core scale-up (%d-day series, budget = MemBudget or raw/4)", days),
		Columns: []string{"consumers", "raw MB", "stored MB", "ratio",
			"budget MB", "generate", "enc/s", "histogram", "3-line", "PAR", "rows/s", "peak MB"},
		Notes: []string{
			"consumers stream into compressed segments (Wh-quantized); the raw matrix is never held",
			fmt.Sprintf("segment encoding uses %d encoder worker(s); the file is byte-identical at any count", max(1, opts.Encoders)),
			"tasks run on the paged column store: blocks decode on demand into a budgeted cache",
			"histogram and PAR take the compressed-domain fast paths over the segment block headers",
			"enc/s is consumers per second of generate+encode wall; rows/s is consumers per second of 3-line wall at 4 workers",
		},
	}

	seedDS, err := seed.Generate(seed.Config{
		Consumers: scaleupSeedConsumers, Days: days, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	gen, err := generator.New(seedDS, generator.Config{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}

	for _, n := range opts.Scale.Consumers {
		row, err := scaleupRun(&opts, gen, seedDS.Temperature, n)
		if err != nil {
			return nil, fmt.Errorf("scaleup %d consumers: %w", n, err)
		}
		rep.AddRow(row...)
	}
	return rep, nil
}

// scaleupRun generates, stores and measures one population size.
func scaleupRun(opts *Options, gen *generator.Generator, temp *timeseries.Temperature, n int) ([]string, error) {
	dir := filepath.Join(opts.WorkDir, fmt.Sprintf("scaleup-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, colstore.SegmentFileName)

	var raw int64
	genTime, err := Timed(func() error {
		wopts := []colstore.WriterOption{colstore.WithQuantize(3)}
		if opts.Encoders > 1 {
			wopts = append(wopts, colstore.WithEncoders(opts.Encoders))
		}
		w, err := colstore.NewSegmentWriter(path, temp.Values, wopts...)
		if err != nil {
			return err
		}
		buf := make([]float64, len(temp.Values))
		for i := 0; i < n; i++ {
			if err := gen.SeriesInto(buf, temp); err != nil {
				_ = w.Close()
				return err
			}
			if err := w.Append(timeseries.ID(i+1), buf); err != nil {
				_ = w.Close()
				return err
			}
		}
		raw = w.RawBytes()
		return w.Close()
	})
	if err != nil {
		return nil, err
	}

	budget := opts.MemBudget
	if budget <= 0 {
		budget = raw / 4
	}
	eng := colstore.New(dir, colstore.WithMemBudget(budget))
	st, err := eng.OpenExisting()
	if err != nil {
		return nil, err
	}
	defer func() { _ = eng.Release() }()

	histTime, err := Timed(func() error {
		_, err := opts.run(eng, core.Spec{Task: core.TaskHistogram, Workers: 4})
		return err
	})
	if err != nil {
		return nil, err
	}
	var tlTime time.Duration
	_, mem, err := MeasureMem(time.Millisecond, func() error {
		var err error
		tlTime, err = Timed(func() error {
			_, err := opts.run(eng, core.Spec{Task: core.TaskThreeLine, Workers: 4})
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	parTime, err := Timed(func() error {
		_, err := opts.run(eng, core.Spec{Task: core.TaskPAR, Workers: 4})
		return err
	})
	if err != nil {
		return nil, err
	}

	ratio := "n/a"
	if st.StorageBytes > 0 {
		ratio = fmt.Sprintf("%.1fx", float64(st.RawBytes)/float64(st.StorageBytes))
	}
	return []string{
		fmt.Sprint(n), fmtMB(st.RawBytes), fmtMB(st.StorageBytes), ratio,
		fmtMB(budget), fmtDur(genTime), fmtRate(n, genTime), fmtDur(histTime), fmtDur(tlTime),
		fmtDur(parTime), fmtRate(n, tlTime), fmtMB(mem.PeakBytes),
	}, nil
}
