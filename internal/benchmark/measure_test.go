package benchmark

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestTimed(t *testing.T) {
	d, err := Timed(func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d < 5*time.Millisecond {
		t.Errorf("duration %v below the slept 5ms", d)
	}

	want := errors.New("boom")
	if _, err := Timed(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("Timed error = %v, want %v", err, want)
	}
}

func TestMeasureMemSamples(t *testing.T) {
	d, usage, err := MeasureMem(time.Millisecond, func() error {
		// Allocate visibly so the sampler sees a heap delta.
		buf := make([][]byte, 0, 64)
		for i := 0; i < 64; i++ {
			buf = append(buf, make([]byte, 1<<20))
			time.Sleep(500 * time.Microsecond)
		}
		runtime.KeepAlive(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("elapsed = %v", d)
	}
	if usage.Samples < 1 {
		t.Errorf("samples = %d, want at least the final sample", usage.Samples)
	}
	if usage.PeakBytes < 32<<20 {
		t.Errorf("peak = %d, want at least half of the 64 MiB held", usage.PeakBytes)
	}
	if usage.AvgBytes < 0 || usage.AvgBytes > usage.PeakBytes {
		t.Errorf("avg %d out of range [0, %d]", usage.AvgBytes, usage.PeakBytes)
	}
}

func TestMeasureMemError(t *testing.T) {
	want := errors.New("measured failure")
	_, _, err := MeasureMem(time.Millisecond, func() error { return want })
	if !errors.Is(err, want) {
		t.Errorf("error = %v, want %v", err, want)
	}
}

func TestMeasureMemDefaultsInterval(t *testing.T) {
	// A non-positive interval must not hang or divide by zero.
	_, usage, err := MeasureMem(0, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if usage.Samples < 1 {
		t.Errorf("samples = %d", usage.Samples)
	}
}

// TestMeasureMemNoGoroutineLeak pins down that the sampler goroutine
// exits once the measured function returns: every reported number runs
// through this harness, so a leak here compounds across a whole
// benchmark suite and skews later memory readings.
func TestMeasureMemNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, _, err := MeasureMem(time.Millisecond, func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The sampler sends its summary before exiting, so by the time
	// MeasureMem returns only scheduler lag can keep it alive; give it
	// a few chances to disappear before declaring a leak.
	for attempt := 0; attempt < 50; attempt++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after 10 MeasureMem runs", before, runtime.NumGoroutine())
}
