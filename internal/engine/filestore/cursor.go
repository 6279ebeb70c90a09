package filestore

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// fileCursor streams a partitioned source one consumer file at a time —
// the Matlab small-files path (Figure 5). Memory stays flat: only the
// current file's series are resident while the pipeline computes.
type fileCursor struct {
	src     *meterdata.Source
	ctx     context.Context
	paths   []string
	tempLen int // temperature year, read once at the first file
	next    int // next file index
	pending []*timeseries.Series
	closed  bool
}

func (c *fileCursor) BindContext(ctx context.Context) { c.ctx = ctx }

// newFileCursorPaths opens a cursor over a shard of the source's file
// list (a partition cursor). The full path list is in ascending
// household order by construction (meterdata.WritePartitioned appends
// files in dataset order), so contiguous shards are ID-disjoint and
// each shard streams in ascending order.
func newFileCursorPaths(src *meterdata.Source, paths []string) *fileCursor {
	return &fileCursor{src: src, paths: paths}
}

func (c *fileCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed {
		return nil, io.EOF
	}
	for len(c.pending) == 0 {
		if c.next >= len(c.paths) {
			return nil, io.EOF
		}
		if c.tempLen == 0 {
			temp, err := meterdata.ReadTemperature(c.src.Dir)
			if err != nil {
				return nil, fmt.Errorf("filestore: %w", err)
			}
			c.tempLen = len(temp.Values)
		}
		series, err := meterdata.ReadSeriesFile(c.paths[c.next], c.src.Format, c.tempLen)
		if err != nil {
			return nil, fmt.Errorf("filestore: %w", err)
		}
		c.next++
		c.pending = series
	}
	s := c.pending[0]
	// Nil the popped slot: the re-slice below keeps the backing array
	// alive until the file is drained, and a non-nil slot would pin the
	// handed-out series for that whole time even after the pipeline is
	// done with it.
	c.pending[0] = nil
	c.pending = c.pending[1:]
	return s, nil
}

func (c *fileCursor) Reset() error {
	c.next = 0
	c.pending = nil
	c.closed = false
	return nil
}

func (c *fileCursor) Close() error {
	c.closed = true
	c.pending = nil
	return nil
}

// SizeHint reports one consumer per file, exact for partitioned sources.
func (c *fileCursor) SizeHint() (int, bool) { return len(c.paths), true }

// sharedIndex reproduces the paper's big-file Matlab path (§5.3.1):
// "Matlab reads the entire large file into an index which is then used
// to extract individual consumers' data; this is slower than reading
// small files one-by-one". The whole unpartitioned file is read into an
// in-memory reading index once, shared by a set of partition cursors
// (indexPartCursor), and every Next extracts one consumer by scanning
// that index end-to-end — the super-linear degradation of Figure 5
// lives here, in the cursor, not in task code. The build cost is paid
// by whichever cursor reaches its first Next first (the others block in
// the Once). The index is dropped when the last cursor closes.
type sharedIndex struct {
	src   *meterdata.Source
	once  sync.Once
	err   error
	temp  *timeseries.Temperature
	index []meterdata.Reading
	ids   []timeseries.ID

	mu   sync.Mutex
	open int // cursors not yet closed; the index is dropped at zero
}

func (x *sharedIndex) ensure() error {
	x.once.Do(func() { x.err = x.build() })
	return x.err
}

// build reads the temperature year and every reading of the source's
// files into the index, and lists the households in ascending order.
func (x *sharedIndex) build() error {
	temp, err := meterdata.ReadTemperature(x.src.Dir)
	if err != nil {
		return fmt.Errorf("filestore: %w", err)
	}
	var index []meterdata.Reading
	var ids []timeseries.ID
	seen := map[timeseries.ID]bool{}
	for _, path := range x.src.Paths() {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("filestore: %w", err)
		}
		err = meterdata.ScanReadings(f, func(r meterdata.Reading) error {
			index = append(index, r)
			if !seen[r.ID] {
				seen[r.ID] = true
				ids = append(ids, r.ID)
			}
			return nil
		})
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("filestore: %w", err)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	x.temp, x.index, x.ids = temp, index, ids
	return nil
}

func (x *sharedIndex) release() {
	x.mu.Lock()
	x.open--
	if x.open == 0 {
		x.index, x.ids = nil, nil
	}
	x.mu.Unlock()
}

// indexPartCursor is one partition of the shared big-file index: the
// consumers whose rank in the sorted ID list falls into partition
// `part` of `parts`. Ranges are computed lazily because the ID set is
// unknown until the index is built.
type indexPartCursor struct {
	idx         *sharedIndex
	ctx         context.Context
	part, parts int
	lo, hi      int // [lo, hi) into idx.ids, valid once ranged
	i           int // offset from lo
	ranged      bool
	closed      bool
}

func (c *indexPartCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *indexPartCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed {
		return nil, io.EOF
	}
	if err := c.idx.ensure(); err != nil {
		return nil, err
	}
	if !c.ranged {
		ranges := core.PartitionRanges(len(c.idx.ids), c.parts)
		if c.part < len(ranges) {
			c.lo, c.hi = ranges[c.part][0], ranges[c.part][1]
		}
		c.ranged = true
	}
	if c.lo+c.i >= c.hi {
		return nil, io.EOF
	}
	id := c.idx.ids[c.lo+c.i]
	// One full index scan per extracted consumer, as the paper
	// describes.
	a := meterdata.NewAssembler(len(c.idx.temp.Values))
	for _, r := range c.idx.index {
		if r.ID != id {
			continue
		}
		if err := a.Add(r); err != nil {
			return nil, fmt.Errorf("filestore: %w", err)
		}
	}
	series := a.Series()
	if len(series) != 1 {
		return nil, fmt.Errorf("filestore: index scan for household %d yielded %d series", id, len(series))
	}
	c.i++
	return series[0], nil
}

func (c *indexPartCursor) Reset() error {
	// Rewind only: a closed partition stays closed (matching core's
	// lazyCursor). Close released this cursor's hold on the shared
	// index, so reviving it here would make the next Close decrement
	// the refcount a second time.
	c.i = 0
	return nil
}

func (c *indexPartCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.idx.release()
	}
	return nil
}

func (c *indexPartCursor) SizeHint() (int, bool) {
	if !c.ranged {
		return 0, false
	}
	return c.hi - c.lo, true
}
