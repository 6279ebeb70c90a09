package benchmark

import (
	"context"
	"fmt"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/fault"
)

// faultRates is the injected per-consumer fault probability sweep. Each
// rate is split three to one between permanent and corrupt faults; 0 is
// the containment-overhead baseline.
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
			"expected shape: rate 0 within a few percent of an uninjected run; throughput decays with the surviving-consumer count",
			"failed counts the quarantined consumers; survivors produce bit-identical results",
		},
	}

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
		for _, rate := range faultRates {
			cfg := fault.Config{
				Seed:      uint64(opts.Seed),
				Permanent: 3 * rate / 4,
				Corrupt:   rate / 4,
			}
			var failed int
			d, err := Timed(func() error {
				ctx := context.Background()
				if opts.Timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
					defer cancel()
				}
				res, err := exec.RunContext(ctx, fault.New(ec.src, cfg), core.Spec{
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
				return nil, fmt.Errorf("faults %s rate=%.2f: %w", ec.name, rate, err)
			}
			rep.AddRow(ec.name, fmt.Sprintf("%.2f", rate), fmtDur(d), fmt.Sprint(failed), fmtRate(n-failed, d))
		}
	}
	return rep, nil
}
