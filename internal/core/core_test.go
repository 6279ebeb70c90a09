package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func dataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSpecWithDefaults(t *testing.T) {
	s := Spec{Task: TaskSimilarity}.WithDefaults()
	if s.Buckets != 10 || s.K != 10 || s.Order != 3 || s.Workers != 1 {
		t.Errorf("defaults = %+v", s)
	}
	s = Spec{Task: TaskPAR, Buckets: 5, K: 2, Order: 1, Workers: 8}.WithDefaults()
	if s.Buckets != 5 || s.K != 2 || s.Order != 1 || s.Workers != 8 {
		t.Errorf("explicit values overridden: %+v", s)
	}
}

func TestTaskAndSupportStrings(t *testing.T) {
	if TaskHistogram.String() != "histogram" || TaskThreeLine.String() != "3-line" ||
		TaskPAR.String() != "PAR" || TaskSimilarity.String() != "similarity" {
		t.Error("task strings")
	}
	if !strings.Contains(Task(42).String(), "42") {
		t.Error("unknown task string")
	}
	if SupportBuiltin.String() != "yes" || SupportNone.String() != "no" ||
		SupportThirdParty.String() != "third party" {
		t.Error("support strings")
	}
	if !strings.Contains(FunctionSupport(9).String(), "9") {
		t.Error("unknown support string")
	}
}

func TestParseFailPolicy(t *testing.T) {
	for name, want := range map[string]FailPolicy{
		"failfast":   FailFast,
		"quarantine": Quarantine,
		"repair":     Repair,
	} {
		got, err := ParseFailPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseFailPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseFailPolicy("maybe"); err == nil {
		t.Error("ParseFailPolicy(maybe): want error")
	}
}

func TestRunReferenceAllTasks(t *testing.T) {
	ds := dataset(t, 4, 30)
	for _, task := range Tasks {
		r, err := RunReference(ds, Spec{Task: task, K: 2})
		if err != nil {
			t.Fatalf("%v: %v", task, err)
		}
		if r.Task != task {
			t.Errorf("%v: result task %v", task, r.Task)
		}
		if r.Count() != 4 {
			t.Errorf("%v: count = %d", task, r.Count())
		}
	}
	if _, err := RunReference(ds, Spec{Task: Task(99)}); err == nil {
		t.Error("unknown task: want error")
	}
}

func TestResultsCount(t *testing.T) {
	r := &Results{Task: Task(99)}
	if r.Count() != 0 {
		t.Error("unknown task count")
	}
}

// A dataset without a temperature series is refused like one whose
// temperatures have the wrong length: the plans read a nil series as an
// empty year. PAR used to dereference it.
func TestRunReferenceWithoutTemperature(t *testing.T) {
	ds := dataset(t, 2, 10)
	ds.Temperature = nil
	for _, task := range []Task{TaskThreeLine, TaskPAR} {
		_, err := RunReference(ds, Spec{Task: task})
		if err == nil || !strings.Contains(err.Error(), "240 readings but 0 temperatures") {
			t.Errorf("%v: err = %v, want the length refusal", task, err)
		}
	}
}

// A ConsumerError has one meaning, the cursor has moved past the
// consumer, and its text reads as it always has: every Failed cause and
// every fail-fast error quotes it.
func TestConsumerErrorTextAndUnwrap(t *testing.T) {
	cause := errors.New("disk gone")
	ce := &ConsumerError{ID: 42, Err: cause}
	if got, want := ce.Error(), "consumer 42: permanent: disk gone"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	if !errors.Is(ce, cause) {
		t.Error("errors.Is does not reach the cause")
	}
	got, ok := AsConsumerError(fmt.Errorf("partition 1: %w", ce))
	if !ok || got != ce {
		t.Errorf("AsConsumerError through a wrap = %v, %v; want the error itself", got, ok)
	}
	if _, ok := AsConsumerError(cause); ok {
		t.Error("AsConsumerError accepted an error with no ConsumerError in its chain")
	}
}
