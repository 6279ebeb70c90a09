package colstore

import "sync"

// The pager is the block cache in front of the segment file. Every
// reader of it — the cursors, a snapshot's base columns, Warm — is a
// full ascending scan, and a scan over a store larger than the cache
// never meets a block again before a least-recently-used cache has
// dropped it (the hit counter of the LRU this replaced read zero on
// every task). So the cache admits instead of evicting: a decoded block
// is kept while it fits the byte budget and then stays until the engine
// detaches or a checkpoint swaps the pager out with its store; once the
// budget is spent, blocks are decoded straight into the reader's row
// and not kept. A budget of 0 keeps nothing, so every block is read
// from the file. A store that fits its budget is fully cached after one
// pass; of a larger one, every later scan on the same attach hits the
// blocks the first scan admitted. Nothing is evicted, so nothing needs
// pinning, and the budget is strict: resident never exceeds it.

// frameKey identifies one decoded block: consumer index x block index.
type frameKey struct {
	c, b int32
}

// pager is safe for concurrent use: partition cursors decode in
// parallel under the prefetcher. A frame is written before it enters
// the map and never after, so readers copy out of it with no latch
// beyond the map's mutex.
type pager struct {
	st     *segStore
	budget int64

	mu       sync.Mutex
	frames   map[frameKey][]float64
	resident int64
	hits     int64
	misses   int64
}

func newPager(st *segStore, budget int64) *pager {
	return &pager{st: st, budget: budget, frames: make(map[frameKey][]float64)}
}

// readConsumer fills row, which must hold st.n values, with consumer c's
// whole series. A block the cache holds is copied out of its frame. The
// others are decoded straight into row out of the consumer's payload
// area, which the first of them reads with one pread, and the cache
// keeps a copy of each while one fits the budget. row is the caller's
// alone — it never aliases a frame. area is the caller's read buffer,
// returned possibly grown so each reader amortizes its own I/O
// allocation.
func (p *pager) readConsumer(c int, row []float64, area []byte) ([]byte, error) {
	read := false
	for b := 0; b < p.st.blockCount; b++ {
		h := p.st.hdr(c, b)
		dst := row[h.start : h.start+h.count]
		key := frameKey{int32(c), int32(b)}
		size := int64(8 * len(dst))
		p.mu.Lock()
		frame, hit := p.frames[key]
		if hit {
			p.hits++
		} else {
			p.misses++
		}
		// resident only grows, so a block that does not fit now never will.
		fits := p.resident+size <= p.budget
		p.mu.Unlock()
		if hit {
			copy(dst, frame)
			continue
		}

		// Read and decode outside the lock: concurrent partition cursors
		// miss on disjoint consumers, so serializing I/O+decode here would
		// forfeit the prefetcher's overlap.
		if !read {
			var err error
			if area, err = p.st.readArea(c, area); err != nil {
				return area, err
			}
			read = true
		}
		if err := p.st.decodeBlock(c, b, area, dst); err != nil {
			return area, err
		}
		if !fits {
			continue
		}
		frame = append([]float64(nil), dst...)
		p.mu.Lock()
		// Checked again under the lock: another cursor may have admitted
		// this block (a snapshot beside a scan) or spent the budget since.
		if _, dup := p.frames[key]; !dup && p.resident+size <= p.budget {
			p.frames[key] = frame
			p.resident += size
		}
		p.mu.Unlock()
	}
	return area, nil
}

// Stats returns cache hit/miss counters and the resident decoded bytes.
// A miss is a block decoded from the file, admitted or not.
func (p *pager) Stats() (hits, misses, resident int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.resident
}
