package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// The benchmark runs on virtual machines that share their host. When a
// neighbour is busy the hypervisor takes processor time away from this
// machine, for minutes at a stretch and up to a quarter of it, and every
// wall-clock timing stretches by that much: it measures the neighbour,
// not the program. The guest kernel counts that time per processor (the
// steal column of /proc/stat), so the benchmark takes it out again: a
// timed stretch lasts its wall-clock time less the longest any one
// processor was taken away during it. A parallel repetition keeps every
// processor busy and loses about what each processor lost; a serial one
// loses what the processor it ran on lost, and an idle processor has
// nothing stolen from it; the largest per-processor loss serves both.
//
// The kernel reports steal in ticks of 10 ms, so this works for
// stretches of several ticks; the workloads are sized so that every
// timed repetition is one. On a machine of its own, or where the kernel
// does not report steal, the correction is zero and the times are
// wall-clock times.

// stealTick is the unit of the counters in /proc/stat (USER_HZ, which
// Linux fixes at 100 for user space).
const stealTick = 10 * time.Millisecond

// stamp is a moment on the wall clock and on every processor's steal
// counter.
type stamp struct {
	at    time.Time
	steal []int64 // ticks, by processor; nil where the kernel reports none
}

// now reads the counters before the clock, and since reads the clock
// before the counters, so that neither read is part of the stretch.
func now() stamp {
	return stamp{steal: readSteal(), at: time.Now()}
}

func readSteal() []int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil // no steal counters on this system: wall-clock times
	}
	return parseSteal(data)
}

// parseSteal reads the steal column of every "cpuN" line of /proc/stat.
func parseSteal(data []byte) []int64 {
	var steal []int64
	for _, line := range bytes.Split(data, []byte("\n")) {
		fields := bytes.Fields(line)
		// "cpu" alone is the sum; steal is the eighth counter.
		if len(fields) < 9 || !bytes.HasPrefix(fields[0], []byte("cpu")) || len(fields[0]) == 3 {
			continue
		}
		v, err := strconv.ParseInt(string(fields[8]), 10, 64)
		if err != nil {
			return nil
		}
		steal = append(steal, v)
	}
	return steal
}

// since returns how long ago s was taken: by the wall clock, and how
// much of that the hypervisor took from the processor it took most from.
func (s stamp) since() (wall, stolen time.Duration) {
	wall = time.Since(s.at)
	end := readSteal()
	if len(end) != len(s.steal) {
		return wall, 0
	}
	for i, v := range end {
		stolen = max(stolen, time.Duration(v-s.steal[i])*stealTick)
	}
	return wall, min(stolen, wall)
}

// own is since's wall time less the stolen part: the time the stretch
// would have taken on a machine of its own.
func (s stamp) own() time.Duration {
	wall, stolen := s.since()
	return wall - stolen
}
