package benchmark

import (
	"fmt"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Updates regenerates the paper's proposed future-work experiment (§3):
// the cost of appending one day's worth of new readings to every stored
// series, per engine — quantifying how expensive the read-optimized
// structures are to update.
func Updates(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := opts.Scale.BaseConsumers
	srcs, err := opts.makeSources(n, "updates", false, false)
	if err != nil {
		return nil, err
	}
	// The delta: one extra day for every household, generated with the
	// same seed pipeline continuing after the stored period.
	deltaFull, err := seed.Generate(seed.Config{
		Consumers: n, Days: 1, Seed: opts.Seed + 1000,
	})
	if err != nil {
		return nil, err
	}
	delta := &timeseries.Dataset{Series: deltaFull.Series, Temperature: deltaFull.Temperature}

	rep := &Report{
		ID:      "updates",
		Title:   fmt.Sprintf("Appending one day to every series (%d consumers)", n),
		Columns: []string{"engine", "append time", "storage written", "amplification"},
		Notes: []string{
			"paper §3 future work: read-optimized structures may be expensive to update",
			"amplification = storage written / size of the appended day",
			"expected shape: colstore rewrites its whole segment image (highest amplification); rowstore writes only new tuples",
		},
	}

	type appendable interface {
		core.Engine
		core.DeltaAppender
	}
	fileE := filestore.New(filestore.WithSplitDir(filepath.Join(opts.WorkDir, "updates-split")))
	rowE := rowstore.New(filepath.Join(opts.WorkDir, "updates-rowstore"))
	defer rowE.Close()
	colE := colstore.New(filepath.Join(opts.WorkDir, "updates-colstore"))
	// Raw size of the appended day, for the amplification ratio.
	var deltaBytes int64
	for _, s := range delta.Series {
		deltaBytes += int64(len(s.Readings)) * 16
	}
	for _, e := range []struct {
		name    string
		eng     appendable
		written func() (int64, error)
	}{
		{"filestore (Matlab)", fileE, func() (int64, error) { return dirBytes(fileE) }},
		{"rowstore (MADLib)", rowE, func() (int64, error) { return rowE.StorageBytes(), nil }},
		{"colstore (System C)", colE, func() (int64, error) { return colE.StorageBytes() }},
	} {
		if _, err := e.eng.Load(srcs.unpartRPL); err != nil {
			return nil, err
		}
		before, err := e.written()
		if err != nil {
			return nil, err
		}
		d, err := Timed(func() error { return e.eng.AppendDelta(delta) })
		if err != nil {
			return nil, fmt.Errorf("updates %s: %w", e.name, err)
		}
		// Storage written: growth for append-style engines, the full new
		// image for rewrite-style engines.
		after, err := e.written()
		if err != nil {
			return nil, err
		}
		written := after - before
		if _, isCol := e.eng.(*colstore.Engine); isCol {
			written = after // the whole image is rewritten
		}
		// Verify the appended data is visible: every consumer's series
		// grew by one day.
		res, err := opts.run(e.eng, core.Spec{Task: core.TaskHistogram})
		if err != nil {
			return nil, err
		}
		verified := 0
		wantTotal := int64((opts.Scale.Days + 1) * timeseries.HoursPerDay)
		for _, h := range res.Histograms {
			if h.Histogram.Total() == wantTotal {
				verified++
			}
		}
		if verified != n {
			return nil, fmt.Errorf("updates %s: only %d/%d series grew", e.name, verified, n)
		}
		rep.AddRow(e.name, fmtDur(d), fmtMB(written),
			fmt.Sprintf("%.1fx", float64(written)/float64(deltaBytes)))
	}
	return rep, nil
}

// dirBytes sums the filestore engine's source files.
func dirBytes(e *filestore.Engine) (int64, error) {
	src := e.Source()
	if src == nil {
		return 0, fmt.Errorf("updates: filestore has no source")
	}
	return src.TotalBytes()
}
