package main

import (
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"run"},
		{"run", "-scale", "bogus", "fig4"},
		{"run", "unknown-experiment"},
		{"run", "-failpolicy", "bogus", "fig4"},
		{"run", "-timeout", "-3s", "fig4"},
		{"run", "-prefetch", "off", "fig4"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestRunOneExperimentSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment run in -short mode")
	}
	if err := run([]string{"run", "-scale", "small", "-workdir", t.TempDir(), "table1"}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsExperimentUnderPolicies runs the fault-injection sweep end
// to end through the CLI with each containment policy.
func TestFaultsExperimentUnderPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment run in -short mode")
	}
	for _, policy := range []string{"quarantine", "repair"} {
		args := []string{"run", "-scale", "small", "-workdir", t.TempDir(),
			"-failpolicy", policy, "-timeout", "2m", "faults"}
		if err := run(args); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
	}
}

func TestParseMemBudget(t *testing.T) {
	good := map[string]int64{
		"":       0,
		"0":      0,
		"1024":   1024,
		"512b":   512,
		"1KiB":   1 << 10,
		"256MiB": 256 << 20,
		"2GiB":   2 << 30,
		"1kb":    1000,
		"100MB":  100 * 1000 * 1000,
		"1GB":    1000 * 1000 * 1000,
	}
	for in, want := range good {
		got, err := parseMemBudget(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
		} else if got != want {
			t.Errorf("%q = %d, want %d", in, got, want)
		}
	}
	for _, in := range []string{"-1", "abc", "12XB", "MiB", "9999999999GiB"} {
		if _, err := parseMemBudget(in); err == nil {
			t.Errorf("%q: want error", in)
		}
	}
}

func TestRunScaleupWithBudget(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"run", "-scale", "small", "-workdir", dir, "-membudget", "64KiB", "scaleup"})
	if err != nil {
		t.Fatal(err)
	}
}
