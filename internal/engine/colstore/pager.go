package colstore

import "sync"

// The pager is the block cache of a paged engine. Every reader of it —
// the paged cursors, a snapshot's base columns, Warm — is a full
// ascending scan, and a scan over a store larger than the cache never
// meets a block again before a least-recently-used cache has dropped it
// (the hit counter of the LRU this replaced read zero on every task).
// So the cache admits instead of evicting: a decoded block is kept
// while it fits the byte budget and then stays until the engine
// detaches or a checkpoint swaps the pager out with its store; once the
// budget is spent, blocks are decoded straight into the reader's row
// and not kept. A store that fits its budget is fully cached after one
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

// read fills dst, which must hold the block's rows, with block b of
// consumer c: a copy of the cached frame on a hit; on a miss a decode
// from the file straight into dst, of which the cache keeps a copy
// while one fits the budget. dst is the caller's alone — it never
// aliases a frame. scratch is the caller's read buffer, returned
// possibly grown so each cursor amortizes its own I/O allocation.
func (p *pager) read(c, b int, dst []float64, scratch []byte) ([]byte, error) {
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
		return scratch, nil
	}

	// Decode outside the lock: concurrent partition cursors miss on
	// disjoint blocks, so serializing I/O+decode here would forfeit the
	// prefetcher's overlap.
	scratch, err := p.st.readBlockVals(c, b, scratch, dst)
	if err != nil || !fits {
		return scratch, err
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
	return scratch, nil
}

// readConsumer assembles consumer c's whole series in row, block by
// block through read.
func (p *pager) readConsumer(c int, row []float64, scratch []byte) ([]byte, error) {
	for b := 0; b < p.st.blockCount; b++ {
		h := p.st.hdr(c, b)
		var err error
		scratch, err = p.read(c, b, row[h.start:h.start+h.count], scratch)
		if err != nil {
			return scratch, err
		}
	}
	return scratch, nil
}

// Stats returns cache hit/miss counters and the resident decoded bytes.
// A miss is a block decoded from the file, admitted or not.
func (p *pager) Stats() (hits, misses, resident int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.resident
}
