package colstore

import (
	"fmt"
	"sync"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// encodePool fans per-consumer block encoding out over a fixed worker
// pool while keeping file writes in appended order, so a pool-encoded
// segment is byte-identical to a serial one:
//
//	Append → copy readings → jobs ──► workers (quantize + encodeConsumer)
//	                                     │
//	            writer goroutine ◄── results (reordered by sequence)
//
// Only the writer goroutine touches the file, directory and offset;
// Append's validation and byte accounting stay on the caller's
// goroutine. Reading and value buffers recycle through bounded free
// lists, so the pool holds O(encoders) consumers in flight — the
// writer stays out-of-core at any consumer count. Errors are sticky:
// the first write failure is reported by the next Append or by Close,
// and later results drain without touching the file.
type encodePool struct {
	w          *SegmentWriter
	jobs       chan encodeJob
	results    chan encodeResult
	valsFree   chan []float64
	bufFree    chan []byte
	wg         sync.WaitGroup
	writerDone chan struct{}
	seq        int

	mu  sync.Mutex
	err error
}

type encodeJob struct {
	seq  int
	id   timeseries.ID
	vals []float64
}

type encodeResult struct {
	seq int
	id  timeseries.ID
	buf []byte
}

func newEncodePool(w *SegmentWriter) *encodePool {
	depth := 2 * w.encoders
	p := &encodePool{
		w:          w,
		jobs:       make(chan encodeJob, depth),
		results:    make(chan encodeResult, depth),
		valsFree:   make(chan []float64, depth+w.encoders+1),
		bufFree:    make(chan []byte, depth+w.encoders+1),
		writerDone: make(chan struct{}),
	}
	p.wg.Add(w.encoders)
	for i := 0; i < w.encoders; i++ {
		go p.worker()
	}
	go func() {
		p.wg.Wait()
		close(p.results)
	}()
	go p.writer()
	return p
}

func (p *encodePool) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *encodePool) sticky() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// append copies the caller's readings into an owned buffer and
// enqueues them; a full queue blocks, which is the pool's natural
// backpressure against generators that outrun the encoders.
func (p *encodePool) append(id timeseries.ID, readings []float64) error {
	if err := p.sticky(); err != nil {
		return err
	}
	var vals []float64
	select {
	case vals = <-p.valsFree:
	default:
		vals = make([]float64, len(readings))
	}
	vals = vals[:len(readings)]
	copy(vals, readings)
	p.jobs <- encodeJob{seq: p.seq, id: id, vals: vals}
	p.seq++
	return nil
}

// worker encodes consumers with private codec scratch. Quantization
// runs here, on the job's owned copy, so the whole per-consumer encode
// cost scales with the pool.
func (p *encodePool) worker() {
	defer p.wg.Done()
	var enc colcodec.Encoder
	var ls colcodec.LaneSummary
	for job := range p.jobs {
		if p.w.quantPow > 0 {
			quantizeInPlace(job.vals, p.w.quantPow)
		}
		var buf []byte
		select {
		case buf = <-p.bufFree:
		default:
		}
		buf = encodeConsumer(&enc, &ls, buf, job.vals, p.w.blockRows, p.w.blockCount, p.w.tsPayloads)
		select {
		case p.valsFree <- job.vals:
		default:
		}
		p.results <- encodeResult{seq: job.seq, id: job.id, buf: buf}
	}
}

// writer is the only goroutine that writes the file during appends: it
// reorders results by sequence number and emits them in appended
// order, so the bytes match the serial path exactly.
func (p *encodePool) writer() {
	defer close(p.writerDone)
	pending := make(map[int]encodeResult)
	next := 0
	for res := range p.results {
		pending[res.seq] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if p.sticky() == nil {
				if err := p.w.writeConsumer(r.id, r.buf); err != nil {
					p.setErr(fmt.Errorf("colstore: write segments: %w", err))
				}
			}
			select {
			case p.bufFree <- r.buf:
			default:
			}
			next++
		}
	}
}

// drain closes the job queue, waits for every in-flight consumer to be
// encoded and written, and returns the pool's sticky error.
func (p *encodePool) drain() error {
	close(p.jobs)
	<-p.writerDone
	return p.sticky()
}
