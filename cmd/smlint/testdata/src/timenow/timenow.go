// Fixture for the timenow analyzer.
package timenow

import (
	"sync"
	"time"
)

// phases mimics the pipeline's shared instrumentation struct.
type phases struct {
	extract stat
	compute stat
}

type stat struct {
	wall time.Duration
}

func fanOut(parts [][]float64) {
	var ph phases
	var wg sync.WaitGroup

	// Shared-field writes from concurrent workers: each += races the
	// others and the phase totals undercount.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			work(parts[w])
			ph.extract.wall += time.Since(t0) // want `time measurement written to captured field ph\.extract\.wall`
			ph.compute.wall = time.Since(t0)  // want `time measurement written to captured field ph\.compute\.wall`
		}(w)
	}
	wg.Wait()

	// The sanctioned pattern: per-worker accumulator slots, summed by
	// the spawner after the joins.
	busy := make([]time.Duration, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			work(parts[w])
			busy[w] += time.Since(t0)
		}(w)
	}
	wg.Wait()
	for _, d := range busy {
		ph.extract.wall += d
	}

	// Slotted struct fields are per-worker too.
	stats := make([]stat, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			work(parts[w])
			stats[w].wall += time.Since(t0)
		}(w)
	}
	wg.Wait()

	// Locals declared inside the closure are goroutine-private.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local stat
			t0 := time.Now()
			work(parts[w])
			local.wall += time.Since(t0)
			busy[w] += local.wall
		}(w)
	}
	wg.Wait()

	// Outside any loop a single goroutine owns the field; no race to
	// flag.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		work(parts[0])
		ph.compute.wall += time.Since(t0)
	}()
	wg.Wait()
}

func work(xs []float64) {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	_ = s
}
