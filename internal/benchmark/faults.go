package benchmark

import (
	"context"
	"fmt"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/fault"
)

// faultRates is the injected per-consumer fault probability sweep. Each
// rate is split three to one between permanent and corrupt faults; 0
// injects nothing but runs the wrapper, whose cost the uninjected run
// beside it shows.
var faultRates = []float64{0, 0.02, 0.05, 0.10}

// Faults measures throughput versus injected fault rate per engine: the
// price of per-consumer failure containment. Faulty consumers are
// quarantined (or repaired under -failpolicy repair); survivors still
// produce results, so throughput degrades with the surviving-consumer
// count rather than collapsing to zero the way fail-fast would.
func Faults(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := opts.Scale.BaseConsumers
	srcs, err := opts.makeSources(n, "faults", false, true)
	if err != nil {
		return nil, err
	}
	policy := opts.FailPolicy
	if policy == core.FailFast {
		// Fail-fast would abort on the first injected fault; the sweep
		// needs containment to have anything to measure.
		policy = core.Quarantine
	}
	rep := &Report{
		ID:      "faults",
		Title:   fmt.Sprintf("Throughput vs injected fault rate (%d consumers, 3-line, %v)", n, policy),
		Columns: []string{"engine", "rate", "time", "failed", "households/s"},
		Notes: []string{
			"expected shape: rate 0 within a few percent of the uninjected run (rate none); throughput decays with the surviving-consumer count",
			"failed counts the quarantined consumers; survivors produce bit-identical results",
			"each cell is a single timing, so it cannot resolve a few percent; repeated cells are ROADMAP item 15",
		},
	}

	// engineCase is a named source: an engine, or one of its fault
	// sweep's cells.
	type engineCase struct {
		name string
		src  exec.Source
	}
	fileE, rowE, colE := singleNodeEngines(&opts, "faults")
	defer rowE.Close()
	if _, err := fileE.Load(srcs.part); err != nil {
		return nil, err
	}
	if _, err := rowE.Load(srcs.unpartRPL); err != nil {
		return nil, err
	}
	if _, err := colE.Load(srcs.unpartRPL); err != nil {
		return nil, err
	}
	cases := []engineCase{
		{"filestore", fileE},
		{"rowstore", rowE},
		{"colstore", colE},
	}
	nodes := maxInt(opts.Scale.ClusterNodes)
	if nodes > 0 {
		_, spark, hive, err := sparkAndHive(nodes, srcs.unpartRPL)
		if err != nil {
			return nil, err
		}
		cases = append(cases, engineCase{"spark", spark}, engineCase{"hive", hive})
	}

	for _, ec := range cases {
		// The uninjected cell runs the engine's own source, without
		// fault.New: the baseline rate 0 is held to.
		cells := []engineCase{{"none", ec.src}}
		for _, rate := range faultRates {
			cells = append(cells, engineCase{fmt.Sprintf("%.2f", rate), fault.New(ec.src, fault.Config{
				Seed:      uint64(opts.Seed),
				Permanent: 3 * rate / 4,
				Corrupt:   rate / 4,
			})})
		}
		for _, c := range cells {
			var failed int
			d, err := Timed(func() error {
				ctx := context.Background()
				if opts.Timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
					defer cancel()
				}
				res, err := exec.RunContext(ctx, c.src, core.Spec{
					Task:       core.TaskThreeLine,
					FailPolicy: policy,
				})
				if err != nil {
					return err
				}
				failed = len(res.Failed)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("faults %s rate=%s: %w", ec.name, c.name, err)
			}
			rep.AddRow(ec.name, c.name, fmtDur(d), fmt.Sprint(failed), fmtRate(n-failed, d))
		}
	}
	return rep, nil
}
