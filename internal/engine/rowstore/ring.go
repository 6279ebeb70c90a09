package rowstore

// Bulk reads. PostgreSQL scans a relation larger than a quarter of
// shared_buffers through a 256 KiB ring of buffers of its own
// (BAS_BULKREAD), so a one-pass scan neither fills the pool nor evicts
// what others cache, and since v17 it reads up to io_combine_limit
// (128 kB) of consecutive blocks with one call. A pageRing is both, for
// one cursor. Unlike PostgreSQL, every cursor scan reads through its
// ring, whatever the table's size: a cold scan through a ring was faster
// than one that filled the pool even where the pool held the table
// (EXPERIMENTS.md, "Row-store bulk reads").
//
// A cursor's read fetches the heap pages its walk visits through its ring;
// descents from the root and the index phase (the leaf chain and the heap
// pages its entries address) keep the pool, as PostgreSQL's index scans
// read through shared buffers and its ring serves sequential heap scans
// only: the index phase reads a live household's hours, which the next
// query reads again. A page the map holds is a hit, whoever holds it. A
// miss that continues a scan (a page the map holds lies at most runPages
// before it) reads up to runPages consecutive pages with one pread into
// the ring's oldest slots, reusing their frames; the run starts right
// after the page held, so it also reads pages the scan skipped. A loaded
// heap is one run of pages, clustered on household, so a walk along it
// reads runPages pages per pread. A miss that jumps (a cursor's first
// page, or a chain link past the loaded run) reads the one page.
// The run stops at the end of the file, at a page the map already
// holds, at a slot another reader still pins, at a slot not over the
// ring's slab (a writer dirtied its frame, which went to the pool) and
// at the ring's last slot. The run's pages are mapped as loading, so a
// reader of any of them waits for the one read.
//
// Ring frames are in the map but never on the LRU list, so only their
// ring reuses them, and they do not count against the pool's capacity:
// a one-pass scan never grows the pool, and a cursor dropped mid-scan
// holds at most 256 KiB. A writer that dirties a ring frame hands it to
// the pool, which alone writes pages back. At EOF or Close the cursor
// releases its ring: its frames leave the map, and any that another
// reader still pins goes to the pool.
const (
	ringFrames = 32 // 256 KiB
	runPages   = 16 // 128 KiB per read
)

// pageRing is one cursor's ring. The pool mutex guards its slots and
// its hand; only the cursor that owns it claims slots.
type pageRing struct {
	bp    *bufferPool
	slab  *[ringFrames * PageSize]byte
	slots [ringFrames]*frame
	hand  int              // the oldest slot, claimed next
	run   [runPages]*frame // the frames of the read in flight
}

func newPageRing(bp *bufferPool) *pageRing {
	r := &pageRing{bp: bp, slab: new([ringFrames * PageSize]byte)}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i := range r.slots {
		r.slots[i] = bp.newFrame(r.home(i))
		r.slots[i].ring = r
	}
	return r
}

// home is slot i's page of the slab.
func (r *pageRing) home(i int) *[PageSize]byte {
	return (*[PageSize]byte)(r.slab[i*PageSize:])
}

// fetch is bufferPool.fetch for a scan: it pins page id, reading a miss
// through the ring.
func (r *pageRing) fetch(id PageID) (*frame, error) {
	bp := r.bp
	bp.mu.Lock()
	if fr, ok := bp.frames[id]; ok {
		return bp.hit(fr)
	}
	if err := bp.pf.checkRead(id); err != nil {
		bp.mu.Unlock()
		return nil, err
	}
	start, run, k := r.claim(id)
	if len(run) == 0 {
		// Other readers pin every slot: the pool takes the page.
		return bp.miss(id)
	}
	buf := run[0].data[:]
	if len(run) > 1 {
		buf = r.slab[start*PageSize : (start+len(run))*PageSize]
	}
	if err := bp.load(run, buf); err != nil {
		return nil, err
	}
	return run[k], nil
}

// claim maps a run of pages around id to consecutive slots from the
// hand on, as loading, and returns the first slot, the run's frames and
// the index of id's frame, which is pinned for the caller; no frames if
// every slot is pinned. A miss within runPages past a page the map holds
// continues a scan: its run starts right after that page, so it also
// reads the pages the scan skipped, and goes on up to runPages pages. Any
// other miss is a jump, and reads the one page. Callers hold mu and have
// checked id against the file and the map.
func (r *pageRing) claim(id PageID) (int, []*frame, int) {
	bp := r.bp
	for skipped := 0; r.slots[r.hand].pins > 0; skipped++ {
		if skipped == ringFrames {
			return 0, nil, 0
		}
		r.hand = (r.hand + 1) % ringFrames
	}
	start, first, limit := r.hand, id, 1
	for back := PageID(1); back <= runPages && back <= id; back++ {
		if bp.frames[id-back] != nil {
			first, limit = id-back+1, runPages
			break
		}
	}
	run := r.span(start, first, limit)
	if len(run) <= int(id-first) {
		first = id
		run = r.span(start, first, limit)
	}
	for k, fr := range run {
		if bp.frames[fr.id] == fr {
			delete(bp.frames, fr.id)
			bp.ringFrames--
		}
		fr.id, fr.pins, fr.loading, fr.err = first+PageID(k), 0, true, nil
		bp.frames[fr.id] = fr
		bp.ringFrames++
	}
	k := int(id - first)
	run[k].pins = 1
	r.hand = (start + len(run)) % ringFrames
	return start, run, k
}

// span returns the frames of slots start, start+1, ... for pages first,
// first+1, ..., at most limit of them, stopping where a run must (see
// the top of this file).
func (r *pageRing) span(start int, first PageID, limit int) []*frame {
	bp := r.bp
	run := r.run[:0]
	for i := start; i < ringFrames && len(run) < limit; i++ {
		fr, p := r.slots[i], first+PageID(len(run))
		if i > start && (p >= bp.pf.nPages || fr.pins > 0 || bp.frames[p] != nil ||
			fr.data != r.home(i) || run[0].data != r.home(start)) {
			break
		}
		run = append(run, fr)
	}
	return run
}

// replace gives fr's slot a new frame over data, or over a fresh page
// when data is nil, and takes fr, which is in the map, out of the ring.
// Callers hold mu.
func (r *pageRing) replace(fr *frame, data *[PageSize]byte) {
	for i, s := range r.slots {
		if s == fr {
			r.slots[i] = r.bp.newFrame(data)
			r.slots[i].ring = r
		}
	}
	fr.ring = nil
	r.bp.ringFrames--
}

// release takes the ring's frames out of the map, handing any that
// another reader still pins to the pool. The cursor drops the ring
// after it.
func (r *pageRing) release() {
	bp := r.bp
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range r.slots {
		if bp.frames[fr.id] != fr {
			continue
		}
		fr.ring = nil
		bp.ringFrames--
		if fr.pins > 0 {
			bp.lruPushFront(fr)
		} else {
			delete(bp.frames, fr.id)
		}
	}
}
