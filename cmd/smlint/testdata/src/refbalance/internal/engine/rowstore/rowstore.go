// Fixture for the refbalance analyzer's value-tracked pairs (the
// import-path suffix internal/engine/rowstore.bufferPool anchors
// fetch/allocate → unpin) and for the revive protocol.
package rowstore

type frame struct{ page int }

type bufferPool struct{ pins int }

func (bp *bufferPool) fetch(page int) (*frame, error) {
	bp.pins++
	return &frame{page: page}, nil
}

func (bp *bufferPool) allocate(page int) *frame {
	bp.pins++
	return &frame{page: page}
}

func (bp *bufferPool) unpin(fr *frame) { bp.pins-- }

// The early return leaks the pinned frame.
func leakFetch(bp *bufferPool, fail bool) error {
	fr, err := bp.fetch(1) // want "fr from fetch does not reach unpin"
	if err != nil {
		return err
	}
	if fail {
		return nil
	}
	bp.unpin(fr)
	return nil
}

// A deferred unpin settles every later path; the error branch is
// pruned (no frame is live when the constructor errored).
func okFetchDefer(bp *bufferPool) error {
	fr, err := bp.fetch(1)
	if err != nil {
		return err
	}
	defer bp.unpin(fr)
	return nil
}

func okAllocate(bp *bufferPool) {
	fr := bp.allocate(2)
	bp.unpin(fr)
}

func leakAllocate(bp *bufferPool, fail bool) *frame {
	fr := bp.allocate(2) // want "fr from allocate does not reach unpin"
	if fail {
		return nil
	}
	return fr // escapes to the caller: that path is fine
}

// poolCursor releases shared state under a latch in Close; a Reset
// that clears the latch revives the cursor and the next Close
// double-releases.
type poolCursor struct {
	bp     *bufferPool
	fr     *frame
	i      int
	closed bool
}

func (c *poolCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.bp.unpin(c.fr)
	}
	return nil
}

func (c *poolCursor) Reset() error {
	c.i = 0
	c.closed = false // want "Reset revives a closed poolCursor"
	return nil
}

// wrapCursor only forwards Close, which the Cursor contract makes
// idempotent: reviving in Reset is safe and not flagged.
type wrapCursor struct {
	inner  *poolCursor
	closed bool
}

func (w *wrapCursor) Close() error {
	if !w.closed {
		w.closed = true
		return w.inner.Close()
	}
	return nil
}

func (w *wrapCursor) Reset() error {
	w.closed = false
	return w.inner.Reset()
}

// A pin carried across loop iterations: the frame of the previous page
// stays pinned until the page changes, and is released under a nil
// guard on the page change and after the loop. The guards' nil
// branches hold no frame, so every path is balanced.
func okCarriedPin(bp *bufferPool, pages []int) error {
	var fr *frame
	var err error
	for _, p := range pages {
		if fr == nil || fr.page != p {
			if fr != nil {
				bp.unpin(fr)
			}
			fr, err = bp.fetch(p)
			if err != nil {
				break
			}
		}
	}
	if fr != nil {
		bp.unpin(fr)
	}
	return err
}

// The same loop with an early return that forgets the carried pin.
func leakCarriedPin(bp *bufferPool, pages []int, stop int) error {
	var fr *frame
	var err error
	for _, p := range pages {
		if fr == nil || fr.page != p {
			if fr != nil {
				bp.unpin(fr)
			}
			fr, err = bp.fetch(p) // want "fr from fetch does not reach unpin"
			if err != nil {
				return err
			}
		}
		if p == stop {
			return nil
		}
	}
	if fr != nil {
		bp.unpin(fr)
	}
	return nil
}
