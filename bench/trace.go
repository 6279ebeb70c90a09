package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, seen from the benchmark: the layer
// function's name, when it started and ended (nanoseconds since the
// tracer was made), the span that was open on the same goroutine when
// it began, and the repetition it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
//
// A span's parent is the innermost span still open on the goroutine
// that begins it. That is what lets the write-ahead log's filesystem
// wrapper, which is called deep inside Append with no handle to the
// benchmark, attach its fsync to the Append that paid for it.
type tracer struct {
	epoch time.Time
	on    atomic.Bool  // spans are recorded only while set
	rep   atomic.Int64 // stamped on every span begun

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // goroutine -> stack of open span ids
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), open: map[uint64][]int{}}
	t.on.Store(true)
	return t
}

// enable switches recording on or off; the traced run turns it off for
// every other repetition of a phase to measure what tracing costs.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep.Store(int64(rep))
	}
}

// spanEnd closes a span; it is what begin returns.
type spanEnd struct {
	t    *tracer
	id   int
	gid  uint64
	from time.Time
}

// begin opens a span. Every begin is paired with one end on the same
// goroutine.
func (t *tracer) begin(name string) spanEnd {
	now := time.Now()
	if t == nil || !t.on.Load() {
		return spanEnd{from: now}
	}
	gid := goroutineID()
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.open[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Rep: int(t.rep.Load()),
		Start: now.Sub(t.epoch).Nanoseconds(),
	})
	t.open[gid] = append(t.open[gid], id)
	t.mu.Unlock()
	return spanEnd{t: t, id: id, gid: gid, from: now}
}

// end closes the span and returns how long it was open, traced or not,
// so one pair of clock reads serves both the span and the sample.
func (e spanEnd) end() time.Duration {
	now := time.Now()
	if e.t != nil {
		e.t.mu.Lock()
		e.t.spans[e.id-1].End = now.Sub(e.t.epoch).Nanoseconds()
		st := e.t.open[e.gid]
		if len(st) > 0 && st[len(st)-1] == e.id {
			st = st[:len(st)-1]
		}
		if len(st) == 0 {
			delete(e.t.open, e.gid)
		} else {
			e.t.open[e.gid] = st
		}
		e.t.mu.Unlock()
	}
	return now.Sub(e.from)
}

// goroutineID reads the current goroutine's number from the first line
// of its stack trace ("goroutine 123 [running]:"), the only place the
// runtime publishes it.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // 0 on a format the runtime has never printed
	return id
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is one row of the table a trace reduces to.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// selfTimes reduces spans to one row per span name. A span's self time
// is its duration minus the part of its interval that its children
// cover; overlapping children are counted once.
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Count++
		row.Total += time.Duration(dur)
		row.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// printTable writes the per-layer table derived from the spans.
func printTable(w *bufio.Writer, spans []span) {
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-24s %8d %12.6f %12.6f\n", r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds())
	}
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}
