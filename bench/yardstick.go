package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"syscall"
	"time"
)

// The yardstick is a fixed piece of work that belongs to the benchmark
// and to nothing it measures. It runs as one more phase beside the
// others, and its median time says how fast the machine was during this
// run. Every time behind an end-to-end metric is then expressed on the
// reference machine's scale: multiplied by yardstickRef / this run's
// yardstick time.
//
// Why: on the shared hosts the benchmark runs on, the same binary runs
// a fifth faster or slower for minutes at a stretch with nothing stolen
// from it (a neighbour in the caches, the memory bus, the clock
// frequency). Over ten runs every metric of a workload moved together
// (correlation 0.9 and more with the mean of the others), which is a
// property of the machine and not of the code, and it was two thirds to
// three quarters of the spread of each. Two commits are compared on one
// machine with one yardstick, so the scale cancels; what remains is what
// the code did.
//
// Never change the work below: every recorded number is relative to it.
// A change that slows the whole process equally (not one of its layers)
// slows the yardstick with it and is not seen; nothing else escapes.

const (
	yardstickWords  = 1 << 20 // 8 MiB a worker: past the second-level cache, as a segment's blocks are
	yardstickPasses = 6
	// yardstickRef is the yardstick's median time on the machine the
	// benchmark was developed on (2 vCPUs of a 2.1 GHz Xeon under KVM),
	// at its usual speed.
	yardstickRef = 60 * time.Millisecond
)

// yardstick holds one buffer per worker. The work mixes what the tasks
// mix: a sequential sweep through memory, shifts and a leading-zero
// count as block decoding has, a branch the predictor cannot learn, and
// a floating-point chain.
//
// The buffers are mapped outside the Go heap. On the heap they would
// raise the collector's target by twice their size and with it how much
// garbage the measured code may pile up before a collection: the run's
// peak memory, which is a metric, rose by a fifth and wandered by a
// tenth.
type yardstick struct {
	mem  []byte
	bufs [][]byte
	sink uint64 // keeps the work from being optimized away
}

func newYardstick(workers int) (*yardstick, error) {
	const size = yardstickWords * 8
	mem, err := syscall.Mmap(-1, 0, workers*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the yardstick's buffers: %w", err)
	}
	y := &yardstick{mem: mem, bufs: make([][]byte, workers)}
	x := uint64(88172645463325252)
	for w := range y.bufs {
		buf := mem[w*size : (w+1)*size : (w+1)*size]
		for i := 0; i < size; i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(buf[i:], x)
		}
		y.bufs[w] = buf
	}
	return y, nil
}

func (y *yardstick) close() error {
	return syscall.Munmap(y.mem)
}

// run does the work once, on every worker at the same time, as a task
// at Workers: W does.
func (y *yardstick) run() {
	sums := make([]uint64, len(y.bufs))
	var wg sync.WaitGroup
	for w, buf := range y.bufs {
		wg.Add(1)
		go func(w int, buf []byte) {
			defer wg.Done()
			sums[w] = sweep(buf)
		}(w, buf)
	}
	wg.Wait()
	for _, s := range sums {
		y.sink ^= s
	}
}

func sweep(buf []byte) uint64 {
	var acc uint64
	f := 1.0
	x := uint64(2685821657736338717)
	for pass := 0; pass < yardstickPasses; pass++ {
		for i := 0; i+8 <= len(buf); i += 8 {
			v := binary.LittleEndian.Uint64(buf[i:])
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d := v ^ x
			if d&1 == 0 {
				acc += uint64(bits.LeadingZeros64(d))
			} else {
				acc ^= d >> (d & 31)
			}
			f = f*0.999999 + float64(d&1023)
			binary.LittleEndian.PutUint64(buf[i:], v+acc)
		}
	}
	return acc + uint64(f)
}
