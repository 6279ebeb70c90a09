// Command smbench regenerates the paper's evaluation tables and
// figures against the Go platform analogues.
//
// Usage:
//
//	smbench list
//	smbench run <experiment|all> [flags]
//
// Examples:
//
//	smbench run fig7 -scale default
//	smbench run all -scale small -workdir /tmp/smbench
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/benchmark"
	"github.com/smartmeter/smartbench/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		for _, e := range benchmark.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Description)
		}
		return nil
	case "run":
		return runExperiments(args[1:])
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scaleName := fs.String("scale", "default", "workload scale: small or default")
	workdir := fs.String("workdir", "", "working directory (default: a temp dir)")
	seed := fs.Int64("seed", 42, "data generation seed")
	policyName := fs.String("failpolicy", "failfast", "per-consumer failure policy: failfast, quarantine or repair")
	timeout := fs.Duration("timeout", 0, "per-run deadline (0 = none), e.g. 30s")
	memBudgetStr := fs.String("membudget", "", "column-store decoded-block cache cap, e.g. 256MiB or 1GiB (default: no cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	memBudget, err := parseMemBudget(*memBudgetStr)
	if err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("run: which experiment? (try `smbench list` or `smbench run all`)")
	}

	var scale benchmark.Scale
	switch *scaleName {
	case "small":
		scale = benchmark.SmallScale()
	case "default":
		scale = benchmark.DefaultScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	policy, err := core.ParseFailPolicy(*policyName)
	if err != nil {
		return err
	}
	if *timeout < 0 {
		return fmt.Errorf("negative timeout %v", *timeout)
	}
	dir := *workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "smbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	var experiments []benchmark.Experiment
	if fs.Arg(0) == "all" {
		experiments = benchmark.All()
	} else {
		for _, id := range fs.Args() {
			e, err := benchmark.Lookup(id)
			if err != nil {
				return err
			}
			experiments = append(experiments, e)
		}
	}
	for _, e := range experiments {
		opts := benchmark.Options{
			WorkDir:    filepath.Join(dir, e.ID),
			Scale:      scale,
			Seed:       *seed,
			FailPolicy: policy,
			Timeout:    *timeout,
			MemBudget:  memBudget,
		}
		rep, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := rep.Print(os.Stdout); err != nil {
			return fmt.Errorf("%s: printing report: %w", e.ID, err)
		}
	}
	return nil
}

// parseMemBudget parses the -membudget flag via the shared byte-size
// parser: a non-negative integer with an optional B/KB/MB/GB (decimal)
// or KiB/MiB/GiB (binary) suffix. Empty means 0: no block cache.
func parseMemBudget(s string) (int64, error) {
	v, err := core.ParseByteSize(s)
	if err != nil {
		return 0, fmt.Errorf("bad -membudget %q (want e.g. 256MiB, 1GiB)", s)
	}
	return v, nil
}

func usage() {
	fmt.Fprint(os.Stderr, `smbench - smart meter analytics benchmark (EDBT 2015 reproduction)

commands:
  list                 show all experiments (paper tables and figures)
  run <id...|all>      run experiments and print paper-style tables
      -scale small|default   workload size (default: default)
      -workdir DIR           keep generated data here
      -seed N                data generation seed
      -failpolicy P          per-consumer failure policy: failfast (default), quarantine, repair
      -timeout D             per-run deadline, e.g. 30s (default: none)
      -membudget SIZE        cap the column store's decoded-block cache, e.g. 256MiB;
                             blocks are admitted while they fit, never evicted
                             (default: no cache, every block decoded from the file)
`)
}
