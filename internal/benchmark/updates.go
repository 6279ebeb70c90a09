package benchmark

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Updates regenerates the paper's proposed future-work experiment (§3):
// the cost of appending one day's worth of new readings to every stored
// series, per engine — quantifying how expensive the read-optimized
// structures are to update.
func Updates(opts Options) (*Report, error) {
	rows, dayBytes, err := measureUpdates(&opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "updates",
		Title:   fmt.Sprintf("Appending one day to every series (%d consumers)", opts.Scale.BaseConsumers),
		Columns: []string{"engine", "append time", "append growth", "amplification", "checkpoint time", "checkpoint written", "amplification"},
		Notes: []string{
			"paper §3 future work: read-optimized structures may be expensive to update",
			"amplification = bytes / size of the appended day; a checkpoint that replaces its file writes all of it",
			"expected shape: the column file takes no byte of the day until its checkpoint rewrite, while the row and text stores grow in place",
		},
	}
	amp := func(b int64) string { return fmt.Sprintf("%.1fx", float64(b)/float64(dayBytes)) }
	for _, r := range rows {
		ckpt := []string{"-", "-", "-"}
		if r.checkpointed {
			ckpt = []string{fmtDur(r.ckptTime), fmtMB(r.written), amp(r.written)}
		}
		rep.AddRow(append([]string{r.name, fmtDur(r.appendTime), fmtMB(r.grown), amp(r.grown)}, ckpt...)...)
	}
	return rep, nil
}

// updateRow is one engine's cost of taking the day.
type updateRow struct {
	name         string
	appendTime   time.Duration
	grown        int64 // store bytes added by the append
	inPlace      bool  // the append left every store file the same file
	checkpointed bool
	ckptTime     time.Duration
	written      int64 // bytes the checkpoint wrote
	replaced     bool  // the checkpoint replaced a store file
	grew         int   // households that hold the stored period and the day
}

// measureUpdates appends one day to every household of each engine and
// measures it. The two stores take the day through their one append
// contract, core.Appender (one batch, households in ID order, each
// one's hours in order), then Checkpoint, and show it through a
// snapshot; the file engine's text files are its store, so its day is
// meterdata.AppendToSource and its run reads the files. It also returns
// the day's raw size, 16 bytes a reading.
func measureUpdates(opts *Options) ([]updateRow, int64, error) {
	if err := opts.fill(); err != nil {
		return nil, 0, err
	}
	n := opts.Scale.BaseConsumers
	srcs, err := opts.makeSources(n, "updates", false, false)
	if err != nil {
		return nil, 0, err
	}
	// The day: one more for every household, generated with the same
	// seed pipeline continuing after the stored period.
	day, err := seed.Generate(seed.Config{Consumers: n, Days: 1, Seed: opts.Seed + 1000})
	if err != nil {
		return nil, 0, err
	}
	stored := opts.Scale.Days * timeseries.HoursPerDay
	batch := core.BatchOf(day, stored)

	fileE := filestore.New(filestore.WithSplitDir(filepath.Join(opts.WorkDir, "updates-split")))
	rowDir := filepath.Join(opts.WorkDir, "updates-rowstore")
	rowE := rowstore.New(rowDir)
	defer rowE.Close()
	colDir := filepath.Join(opts.WorkDir, "updates-colstore")
	colE := colstore.New(colDir)
	onSnapshot := func(app core.Appender) func(core.Spec) (*core.Results, error) {
		return func(spec core.Spec) (*core.Results, error) {
			return opts.within(spec, func(ctx context.Context, spec core.Spec) (*core.Results, error) {
				res, _, err := exec.RunSnapshot(ctx, app, spec)
				return res, err
			})
		}
	}
	stores := []struct {
		name  string
		eng   core.Engine
		files func() []string // the files the store keeps its data in
		size  func() (int64, error)
		add   func() error
		ckpt  func() error // nil: the store has no checkpoint
		run   func(core.Spec) (*core.Results, error)
	}{
		{"filestore (Matlab)", fileE,
			func() []string { return append(fileE.Source().Paths(), fileE.Source().TemperaturePath()) },
			func() (int64, error) { return fileE.Source().TotalBytes() },
			func() error { return meterdata.AppendToSource(fileE.Source(), day, stored) },
			nil,
			func(spec core.Spec) (*core.Results, error) { return opts.run(fileE, spec) }},
		{"rowstore (MADLib)", rowE,
			func() []string { return []string{filepath.Join(rowDir, rowstore.TableFileName)} },
			func() (int64, error) { return rowE.StorageBytes(), nil },
			func() error { return rowE.Append(batch) },
			rowE.Checkpoint,
			onSnapshot(rowE)},
		{"colstore (System C)", colE,
			func() []string { return []string{filepath.Join(colDir, colstore.SegmentFileName)} },
			colE.StorageBytes,
			func() error { return colE.Append(batch) },
			colE.Checkpoint,
			onSnapshot(colE)},
	}
	var rows []updateRow
	for _, s := range stores {
		if _, err := s.eng.Load(srcs.unpartRPL); err != nil {
			return nil, 0, err
		}
		state := func() (storeState, error) { return statStore(s.files(), s.size) }
		before, err := state()
		if err != nil {
			return nil, 0, err
		}
		r := updateRow{name: s.name}
		if r.appendTime, err = Timed(s.add); err != nil {
			return nil, 0, fmt.Errorf("updates %s: %w", s.name, err)
		}
		appended, err := state()
		if err != nil {
			return nil, 0, err
		}
		r.grown, r.inPlace = before.written(appended)
		if s.ckpt != nil {
			r.checkpointed = true
			if r.ckptTime, err = Timed(s.ckpt); err != nil {
				return nil, 0, fmt.Errorf("updates %s: checkpoint: %w", s.name, err)
			}
			after, err := state()
			if err != nil {
				return nil, 0, err
			}
			var inPlace bool
			r.written, inPlace = appended.written(after)
			r.replaced = !inPlace
		}
		// The day is visible: every household's series grew by it.
		res, err := s.run(core.Spec{Task: core.TaskHistogram})
		if err != nil {
			return nil, 0, err
		}
		want := int64(stored + timeseries.HoursPerDay)
		for _, h := range res.Histograms {
			if h.Histogram.Total() == want {
				r.grew++
			}
		}
		if r.grew != n {
			return nil, 0, fmt.Errorf("updates %s: only %d/%d series grew", s.name, r.grew, n)
		}
		rows = append(rows, r)
	}
	return rows, int64(len(batch)) * 16, nil
}

// storeState is a store's files and size at one moment.
type storeState struct {
	files []os.FileInfo
	size  int64
}

func statStore(paths []string, size func() (int64, error)) (storeState, error) {
	var st storeState
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return st, fmt.Errorf("updates: %w", err)
		}
		st.files = append(st.files, fi)
	}
	var err error
	st.size, err = size()
	return st, err
}

// written reports the bytes a store took from a to b, and whether each
// of its files is still the same file (os.SameFile). A store whose files
// all grew in place took its growth; one with a replaced file wrote the
// whole of its new size.
func (a storeState) written(b storeState) (int64, bool) {
	for i := range a.files {
		if !os.SameFile(a.files[i], b.files[i]) {
			return b.size, false
		}
	}
	return b.size - a.size, true
}
